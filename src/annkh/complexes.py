"""Cube of resolutions and bigraded chain complex assembly.

Vertices are smoothings, edges carry signed saddle maps, and the
complex in homological degree i collects the vertices of weight
i + n_minus with quantum grading shifted by n_minus - n_plus - i.
The differential preserves the shifted bigrading; d^2 = 0 holds
already over the generic bivariate ring.

A cube is planar or annular (``planar``); the ring picks the slot bases
and whether the quantum grading survives.  :func:`split_cube` turns a
planar cube into its split cube, whose edges carry the annular part and
the adeg-raising part of each planar map.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from . import tqft
from .diagram import cube_edge_pairs
from .errors import UnsupportedRingError, VariantRingMismatchError
from .linalg import SparseMatrix
from .ring import GenericAlpha


def sign_assignment(u, i):
    """Exponent of the sign on the edge raising coordinate i of u."""
    if u[i] != 0:
        raise ValueError("edge must start at a 0-coordinate")
    return sum(u[:i]) % 2


@dataclass(frozen=True)
class CubeEdge:
    u: tuple
    v: tuple
    coordinate: int
    sign_exponent: int
    descriptor: object
    map: object  # LinearMap, or a (d0, d2) pair in a split cube


@dataclass
class Cube:
    diagram: object
    ring: object
    planar: bool  # edge maps are the untruncated planar maps
    resolutions: dict
    spaces: dict
    edges: list
    split: bool = False  # edge maps are (d0, d2) pairs; see split_cube


def build_cube(d, ring, planar=False):
    """Resolve all smoothings and build every classified edge map
    between the cube's own vertex spaces."""
    d.ensure_valid()
    n = d.n_crossings
    resolutions = {}
    spaces = {}
    for u in product((0, 1), repeat=n):
        rd = d.resolve(u)
        resolutions[u] = rd
        spaces[u] = tqft.state_space(rd, ring, planar)
    if planar:
        saddle_map = tqft.full_saddle_map
    else:
        saddle_map = tqft.annular_saddle_map
    edges = []
    for u in resolutions:
        for i, v in cube_edge_pairs(d, u):
            sd = tqft.classify_saddle(d, resolutions[u], resolutions[v], i)
            m = saddle_map(sd, spaces[u], spaces[v])
            edges.append(
                CubeEdge(u, v, i, sign_assignment(u, i), sd, m)
            )
    return Cube(d, ring, planar, resolutions, spaces, edges)


def split_cube(cube):
    """The split cube of a planar cube: every edge map becomes its
    (d0, d2) pair from ``tqft.annular_parts``.

    This is the only way to a split cube.  Its d0 maps are the annular
    differential, so the split cube is not planar, and ``assemble``
    puts the d2 maps in ``diff2``.  The vertices keep the planar cube's
    spaces, and the pairs are maps between them.
    """
    if not cube.planar:
        raise VariantRingMismatchError("only a planar cube splits")
    edges = [replace(e, map=tqft.annular_parts(e.map)) for e in cube.edges]
    return replace(cube, planar=False, edges=edges, split=True)


@dataclass
class ChainComplexData:
    """Assembled bigraded complex over a coefficient ring."""

    ring: object
    planar: bool  # diff is the untruncated planar differential
    n_plus: int
    n_minus: int
    degrees: list
    basis: dict  # i -> list of (smoothing, word)
    bigrade: dict  # i -> list of (qdeg, adeg); qdeg None when ungraded
    diff: dict  # i -> SparseMatrix  C^i -> C^{i+1}
    diff2: dict = field(default=None)  # split cube: the adeg-raising family
    offsets: dict = field(default_factory=dict)  # (i, u) -> first index of u

    @property
    def qdeg_graded(self):
        return self.ring.preserves_qdeg

    @property
    def adeg_graded(self):
        return not self.planar

    def rank(self, i):
        return len(self.basis.get(i, ()))

    def total_rank(self):
        return sum(len(b) for b in self.basis.values())

    def offset(self, i, u):
        """Index of the first basis vector of vertex u in degree i."""
        return self.offsets[(i, u)]


def assemble(cube, choice=None):
    """Groups and signed differentials, with the quantum shift applied."""
    d = cube.diagram
    n_plus, n_minus = d.n_plus_minus(choice)
    ring = cube.ring
    split = cube.split

    degrees = list(range(-n_minus, n_plus + 1))
    basis = {}
    bigrade = {}
    offsets = {}
    for i in degrees:
        blist = []
        grade = []
        for u in sorted(u for u in cube.resolutions if sum(u) == i + n_minus):
            offsets[(i, u)] = len(blist)
            space = cube.spaces[u]
            for word in space.words():
                q, a = space.word_bidegree(word)
                blist.append((u, word))
                grade.append((q + n_minus - n_plus - i, a))
        basis[i] = blist
        bigrade[i] = grade

    # Each edge u -> v fills its own block (rows of v, columns of u), so
    # edge entries are placed, never summed.
    by_degree = {}
    for edge in cube.edges:
        by_degree.setdefault(sum(edge.u) - n_minus, []).append(edge)
    diff = {}
    diff2 = {} if split else None
    for i in degrees[:-1]:
        nrows = len(basis[i + 1])
        ncols = len(basis[i])
        m0 = {}
        m2 = {}
        for edge in by_degree.get(i, ()):
            cof = offsets[(i, edge.u)]
            rof = offsets[(i + 1, edge.v)]
            negate = edge.sign_exponent == 1
            parts = edge.map if split else (edge.map,)
            for target, em in zip((m0, m2), parts):
                for (r, c), v in em.entries.items():
                    target[(rof + r, cof + c)] = ring.neg(v) if negate else v
        diff[i] = SparseMatrix.wrap(ring, nrows, ncols, m0)
        if split:
            diff2[i] = SparseMatrix.wrap(ring, nrows, ncols, m2)
    return ChainComplexData(
        ring=ring,
        planar=cube.planar,
        n_plus=n_plus,
        n_minus=n_minus,
        degrees=degrees,
        basis=basis,
        bigrade=bigrade,
        diff=diff,
        diff2=diff2,
        offsets=offsets,
    )


def build_complex(d, ring, planar=False, choice=None):
    return assemble(build_cube(d, ring, planar), choice)


def verify_d_squared(c):
    """None when every consecutive product vanishes, else the first
    nonzero entry as (degree, row, col, value)."""
    for i in c.degrees[:-2]:
        prod = c.diff[i + 1] @ c.diff[i]
        if not prod.is_zero():
            (r, col), v = sorted(prod.entries.items())[0]
            return (i, r, col, v)
    return None


def verify_beta(c):
    """The three components of d_beta^2 = 0, each as in verify_d_squared."""
    if c.diff2 is None:
        raise VariantRingMismatchError("not the complex of a split cube")
    report = {}
    for name, left, right in (
        ("d0d0", c.diff, c.diff),
        ("d0d2+d2d0", c.diff, c.diff2),
        ("d2d2", c.diff2, c.diff2),
    ):
        bad = None
        for i in c.degrees[:-2]:
            if name == "d0d2+d2d0":
                prod = (c.diff[i + 1] @ c.diff2[i]) + (c.diff2[i + 1] @ c.diff[i])
            else:
                prod = left[i + 1] @ right[i]
            if not prod.is_zero():
                (r, col), v = sorted(prod.entries.items())[0]
                bad = (i, r, col, v)
                break
        report[name] = bad
    return report


def verify_grading(c):
    """Check every differential entry respects the shifted bigrade.

    Annular differentials must preserve adeg exactly; the untruncated
    planar one may also raise it by 2.  Quantum degrees of entries are
    accounted through their polynomial degree; over ungraded rings only
    the annular degree is checked.
    """
    adeg_shifts = (0, 2) if c.planar else (0,)
    for i in c.degrees[:-1]:
        src = c.bigrade[i]
        dst = c.bigrade[i + 1]
        for (r, col), v in c.diff[i].entries.items():
            qs, as_ = src[col]
            qt, at = dst[r]
            if at - as_ not in adeg_shifts:
                return (i, r, col, "adeg")
            if c.qdeg_graded:
                sq = c.ring.scalar_qdeg(v)
                if sq is None or qt + sq != qs:
                    return (i, r, col, "qdeg")
    return None


def specialize_complex(c, target):
    """Entrywise specialization of a generic complex; grading metadata is
    preserved, and the target ring decides whether qdeg is graded."""
    if not isinstance(c.ring, GenericAlpha):
        raise UnsupportedRingError("can only specialize the generic complex")
    diff = {
        i: m.map_entries(target.specialize_poly, target)
        for i, m in c.diff.items()
    }
    diff2 = None
    if c.diff2 is not None:
        diff2 = {
            i: m.map_entries(target.specialize_poly, target)
            for i, m in c.diff2.items()
        }
    return ChainComplexData(
        ring=target,
        planar=c.planar,
        n_plus=c.n_plus,
        n_minus=c.n_minus,
        degrees=list(c.degrees),
        basis={i: list(b) for i, b in c.basis.items()},
        bigrade={i: list(g) for i, g in c.bigrade.items()},
        diff=diff,
        diff2=diff2,
        offsets=dict(c.offsets),
    )
