"""Cube of resolutions and bigraded chain complex assembly.

Vertices are smoothings, edges carry signed saddle maps, and the
complex in homological degree i collects the vertices of weight
i + n_minus with quantum grading shifted by n_minus - n_plus - i.
The differential preserves the shifted bigrading; d^2 = 0 holds
already over the generic bivariate ring.

A cube is planar or annular (``planar``); the ring picks the slot bases
and whether the quantum grading survives.  The planar differential is
the deformed one, d_beta = d0 + d2: its annular-degree-preserving part
d0 is the annular differential and d2 raises annular degree by 2, so
:func:`verify_beta` reads the three parts of d_beta^2 = 0 off one
product by their annular-degree shifts 0, 2 and 4.

The complex is its cube, and the cube is made of ints:
:func:`build_complex` walks it one degree at a time, resolving each
vertex once and holding the resolutions of two degrees only, and keeps
each edge as one row of its degree's blocks, (row offset, col offset,
signed items), at its vertices' offsets; nothing is re-keyed.
``homology``, the checks and the canonical generators add the offsets
as they read, and no differential is ever assembled.  Edge maps of one
placement shape share one entry dict (see ``tqft``), so the walk makes
one items list per shared dict and sign, :func:`verify_grading` takes
the polynomial degrees of each list once, and the d^2 checks multiply
each distinct face of the cube once, all faces of a degree in one
``ring.matmul``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import tqft
from .diagram import cube_edge_pairs
from .errors import InvariantError, VariantRingMismatchError
from .linalg import accumulate


@dataclass
class ChainComplexData:
    """Bigraded complex over a coefficient ring, kept as its edge blocks."""

    ring: object
    planar: bool  # the blocks hold the untruncated planar differential
    n_plus: int
    n_minus: int
    degrees: list
    # i -> (qdeg, adeg) of each generator of C^i, in basis order: the
    # vertices of degree i sorted, each vertex's words in index order.
    # qdeg is the shifted quantum degree, filled in also over rings
    # that do not preserve it (see ``qdeg_graded``).
    bigrade: dict
    # i -> [(row offset, col offset, ((row, col), value) items)] of
    # C^i -> C^{i+1}, one disjoint block per edge, signed; edges of one
    # map and sign share one items object
    blocks: dict
    offsets: dict = field(default_factory=dict)  # (i, u) -> first index of u

    @property
    def qdeg_graded(self):
        return self.ring.preserves_qdeg

    @property
    def adeg_graded(self):
        return not self.planar

    def rank(self, i):
        return len(self.bigrade.get(i, ()))

    def total_rank(self):
        return sum(len(g) for g in self.bigrade.values())

    def offset(self, i, u):
        """Index of the first basis vector of vertex u in degree i."""
        return self.offsets[(i, u)]


def _vertices(n, weight):
    """The smoothings of n crossings with ``weight`` ones, in order."""
    return sorted(
        tuple(int(k in ones) for k in range(n)) for ones in combinations(range(n), weight)
    )


def build_complex(d, ring, planar=False, placements=None):
    """The complex of the cube of resolutions of d, walked one degree at
    a time, with the quantum shift applied.

    Each vertex is resolved once, and only the resolutions of two
    adjacent degrees are held; vertices of equal slots share one space
    (``tqft.state_space``).  Each edge is classified from its two
    vertices' ``slot_of_edge`` tables at its crossing's four edges
    (``tqft._saddle``, which ``tqft.classify_saddle`` calls too), its map
    is placed through the memo ``placements`` of ``tqft._embed``, and the
    edge is kept as one row of its degree's blocks: (row offset, col
    offset, signed items), the items built once per map and sign.  A
    caller that passes ``placements`` can read each distinct map off it.
    """
    d.ensure_valid()
    n = d.n_crossings
    n_plus, n_minus = d.n_plus_minus()
    degrees = list(range(-n_minus, n_plus + 1))
    incident = [d.incident_edges(k) for k in range(n)]
    spaces = {}
    placements = {} if placements is None else placements
    signed = {}  # (id of a shared entry dict, sign) -> (the dict, signed items)
    bigrade, offsets, blocks = {}, {}, {}

    def resolve_degree(i):
        """Each vertex of degree i -> (resolution, space, offset).  The
        vertices of one space share its shifted bidegree tuples."""
        level, grade, shifted = {}, [], {}
        shift = n_minus - n_plus - i
        for u in _vertices(n, i + n_minus):
            rd = d.resolve(u)
            space = tqft.state_space(rd, ring, planar, memo=spaces)
            offsets[(i, u)] = len(grade)
            level[u] = (rd, space, len(grade))
            if id(space) not in shifted:
                shifted[id(space)] = [(q + shift, a) for q, a in space.bidegrees]
            grade += shifted[id(space)]
        bigrade[i] = grade
        return level

    below = resolve_degree(degrees[0])
    for i in degrees[:-1]:
        above = resolve_degree(i + 1)
        rows = blocks[i] = []
        for u, (rd_u, dom, cof) in below.items():
            for k, v in cube_edge_pairs(d, u):
                rd_v, cod, rof = above[v]  # rows of v, columns of u
                _, dom_inv, cod_inv, pairs = tqft._saddle(rd_u, rd_v, k, incident[k])
                m = tqft._embed(dom, cod, dom_inv, cod_inv, pairs, memo=placements)
                key = (id(m.entries), sum(u[:k]) % 2)  # the sign's exponent
                if key not in signed:
                    items = m.entries.items()
                    if key[1]:
                        items = [(rc, ring.neg(x)) for rc, x in items]
                    signed[key] = (m.entries, items)
                rows.append((rof, cof, signed[key][1]))
        below = above
    return ChainComplexData(
        ring=ring,
        planar=planar,
        n_plus=n_plus,
        n_minus=n_minus,
        degrees=degrees,
        bigrade=bigrade,
        blocks=blocks,
        offsets=offsets,
    )


def _first_nonzero(i, entries):
    """The least (row, col) entry as (degree, row, col, value)."""
    (r, col), v = min(entries.items())
    return (i, r, col, v)


def _square(c, i):
    """The nonzero entries of d_{i+1} d_i, {(row, col): value}, read off
    the blocks.

    A block of d_i meets the blocks of d_{i+1} whose column offset is its
    row offset, and the paths are grouped by target (row offset, col
    offset): a face (u, w) of the cube.  A face is keyed by the ids of
    its paths' shared signed items, so faces of one key have one sum.
    Each distinct face is stacked once into one product for the degree,
    each path on inner indices of its own and each face on rows and
    columns of its own, so the paths of a face cancel inside
    ``ring.matmul``; each nonzero face sum is added back at the offsets
    of every face of its key.  This is the assembled product when
    the blocks tile C^{i+1}: a block whose inner indices reach the next
    block start, or whose indices reach past its degree's rank, raises
    ``InvariantError``."""
    ring = c.ring
    into, out_of = c.blocks.get(i, ()), c.blocks.get(i + 1, ())
    reach = {}  # id of items -> (rows, cols) its entries reach

    def ends(items):
        if id(items) not in reach:
            reach[id(items)] = (
                max((r for (r, _), _ in items), default=-1) + 1,
                max((k for (_, k), _ in items), default=-1) + 1,
            )
        return reach[id(items)]

    inner = [(rof, ends(items)[0]) for rof, _, items in into]
    inner += [(cof, ends(items)[1]) for _, cof, items in out_of]
    starts = sorted({s for s, _ in inner})
    following = dict(zip(starts, starts[1:] + [c.rank(i + 1)]))
    for s, n in inner:
        if s + n > following[s]:
            raise InvariantError(
                f"a block of degree {i + 1} at {s} reaches {following[s]}"
            )
    outer = [(cof + ends(items)[1], i) for _, cof, items in into]
    outer += [(rof + ends(items)[0], i + 2) for rof, _, items in out_of]
    for end, j in outer:
        if end > c.rank(j):
            raise InvariantError(f"a block of degree {j} reaches {end}, past its rank")
    later = {}
    for rof, cof, items in out_of:
        later.setdefault(cof, []).append((rof, items))
    targets = {}  # (row offset, col offset) -> [(d_{i+1} items, d_i items)]
    for rof, cof, first in into:
        for top, second in later.get(rof, ()):
            targets.setdefault((top, cof), []).append((second, first))
    faces = {}  # sorted path ids -> (paths, targets)
    for target, paths in targets.items():
        key = tuple(sorted((id(a), id(b)) for a, b in paths))
        faces.setdefault(key, (paths, []))[1].append(target)
    left, right, face_of_row = {}, {}, []
    rows = cols = k0 = 0
    for paths, at in faces.values():
        height = width = 0
        for second, first in paths:
            for (r, k), v in second:
                left[(rows + r, k0 + k)] = v
            for (k, col), v in first:
                right[(k0 + k, cols + col)] = v
            height = max(height, ends(second)[0])
            width = max(width, ends(first)[1])
            k0 += max(ends(second)[1], ends(first)[0])
        face_of_row += [(rows, cols, at)] * height
        rows += height
        cols += width
    placed = (
        ((top + r - r0, cof + col - c0), v)
        for (r, col), v in ring.matmul(left, right).items()
        for r0, c0, at in [face_of_row[r]]
        for top, cof in at
    )
    return accumulate(ring, {}, placed)


def verify_d_squared(c):
    """None when every consecutive product vanishes, else the first
    nonzero entry as (degree, row, col, value)."""
    for i in c.degrees[:-2]:
        sq = _square(c, i)
        if sq:
            return _first_nonzero(i, sq)
    return None


_BETA_PARTS = {0: "d0d0", 2: "d0d2+d2d0", 4: "d2d2"}


def verify_beta(c):
    """The three components of d_beta^2 = 0 on the planar complex, each
    as in verify_d_squared.

    The planar differential is d_beta = d0 + d2, so d_beta^2 is one
    product per degree, and its d0d0, d0d2+d2d0 and d2d2 parts are its
    entries of annular-degree shift 0, 2 and 4.  Any other shift raises
    ``InvariantError``.
    """
    if not c.planar:
        raise VariantRingMismatchError("verify_beta needs the planar complex")
    report = dict.fromkeys(_BETA_PARTS.values())
    for i in c.degrees[:-2]:
        src, dst = c.bigrade[i], c.bigrade[i + 2]
        parts = {}
        for (r, col), v in _square(c, i).items():
            shift = dst[r][1] - src[col][1]
            if shift not in _BETA_PARTS:
                raise InvariantError(f"d_beta^2 shifts adeg by {shift}")
            parts.setdefault(_BETA_PARTS[shift], {})[(r, col)] = v
        for name, entries in parts.items():
            if report[name] is None:
                report[name] = _first_nonzero(i, entries)
    return report


def verify_grading(c):
    """Check every differential entry respects the shifted bigrade.

    Annular differentials must preserve adeg exactly; the untruncated
    planar one may also raise it by 2.  Quantum degrees of entries are
    accounted through their polynomial degree; over ungraded rings only
    the annular degree is checked.  Entries are read off the blocks, in
    degree order and at their offsets.
    """
    adeg_shifts = (0, 2) if c.planar else (0,)
    qdegs = {}  # id of a block's items -> the qdeg of each value
    for i in c.degrees[:-1]:
        src, dst = c.bigrade[i], c.bigrade[i + 1]
        for rof, cof, items in c.blocks.get(i, ()):
            if c.qdeg_graded and id(items) not in qdegs:
                qdegs[id(items)] = [c.ring.scalar_qdeg(v) for _, v in items]
            sqs = qdegs.get(id(items))
            for n, ((r, col), _) in enumerate(items):
                r, col = rof + r, cof + col
                qs, as_ = src[col]
                qt, at = dst[r]
                if at - as_ not in adeg_shifts:
                    return (i, r, col, "adeg")
                if sqs is not None and (sqs[n] is None or qt + sqs[n] != qs):
                    return (i, r, col, "qdeg")
    return None
