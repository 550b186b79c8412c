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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import tqft
from .diagram import cube_edge_pairs
from .errors import InvariantError, UnsupportedRingError, VariantRingMismatchError
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
    map: object  # LinearMap


@dataclass
class Cube:
    diagram: object
    ring: object
    planar: bool  # edge maps are the untruncated planar maps
    resolutions: dict
    spaces: dict
    edges: list


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
    edges = []
    for u in resolutions:
        for i, v in cube_edge_pairs(d, u):
            sd = tqft.classify_saddle(d, resolutions[u], resolutions[v], i)
            m = tqft.annular_saddle_map(sd, spaces[u], spaces[v])
            edges.append(
                CubeEdge(u, v, i, sign_assignment(u, i), sd, m)
            )
    return Cube(d, ring, planar, resolutions, spaces, edges)


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
    offsets: dict = field(default_factory=dict)  # (i, u) -> first index of u
    # Always None: the planar diff is d0 + d2 in one matrix.  Kept only
    # because perfbench/spans.py::_assemble_probe reads it.
    diff2 = None

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
    for i in degrees[:-1]:
        m = {}
        for edge in by_degree.get(i, ()):
            cof = offsets[(i, edge.u)]
            rof = offsets[(i + 1, edge.v)]
            negate = edge.sign_exponent == 1
            for (r, c), v in edge.map.entries.items():
                m[(rof + r, cof + c)] = ring.neg(v) if negate else v
        diff[i] = SparseMatrix.wrap(ring, len(basis[i + 1]), len(basis[i]), m)
    return ChainComplexData(
        ring=ring,
        planar=cube.planar,
        n_plus=n_plus,
        n_minus=n_minus,
        degrees=degrees,
        basis=basis,
        bigrade=bigrade,
        diff=diff,
        offsets=offsets,
    )


def build_complex(d, ring, planar=False, choice=None):
    return assemble(build_cube(d, ring, planar), choice)


def _first_nonzero(i, entries):
    """The least (row, col) entry as (degree, row, col, value)."""
    (r, col), v = min(entries.items())
    return (i, r, col, v)


def verify_d_squared(c):
    """None when every consecutive product vanishes, else the first
    nonzero entry as (degree, row, col, value)."""
    for i in c.degrees[:-2]:
        prod = c.diff[i + 1] @ c.diff[i]
        if not prod.is_zero():
            return _first_nonzero(i, prod.entries)
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
        for (r, col), v in (c.diff[i + 1] @ c.diff[i]).entries.items():
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
    return ChainComplexData(
        ring=target,
        planar=c.planar,
        n_plus=c.n_plus,
        n_minus=c.n_minus,
        degrees=list(c.degrees),
        basis={i: list(b) for i, b in c.basis.items()},
        bigrade={i: list(g) for i, g in c.bigrade.items()},
        diff=diff,
        offsets=dict(c.offsets),
    )
