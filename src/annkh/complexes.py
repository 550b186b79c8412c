"""Cube of resolutions and bigraded chain complex assembly.

Vertices are smoothings, edges carry signed saddle maps, and the
complex in homological degree i collects the vertices of weight
i + n_minus with quantum grading shifted by n_minus - n_plus - i.
The differential preserves the shifted bigrading; d^2 = 0 holds
already over the generic bivariate ring.
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
    map: object  # LinearMap, or a (d0, d2) pair for the BETA variant


@dataclass
class Cube:
    diagram: object
    ring: object
    variant: str
    resolutions: dict
    spaces: dict
    edges: list


def build_cube(d, ring, variant):
    """Resolve all smoothings and build every classified edge map
    between the cube's own vertex spaces."""
    tqft.check_variant_ring(ring, variant)
    d.ensure_valid()
    n = d.n_crossings
    resolutions = {}
    spaces = {}
    for u in product((0, 1), repeat=n):
        rd = d.resolve(u)
        resolutions[u] = rd
        spaces[u] = tqft.state_space(rd, ring, variant)
    if variant == tqft.GENERIC:
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
    return Cube(d, ring, variant, resolutions, spaces, edges)


def split_cube(cube):
    """The BETA cube of a GENERIC cube: every edge map becomes its
    (d0, d2) pair from ``tqft.annular_parts``.

    This is the only way to a BETA cube: ``build_cube`` refuses the
    variant.  BETA slots have the GENERIC conventions, so the vertices
    keep the GENERIC cube's spaces, labels included, and the pairs are
    maps between them.
    """
    if cube.variant != tqft.GENERIC:
        raise VariantRingMismatchError(f"cannot split a {cube.variant} cube")
    edges = [replace(e, map=tqft.annular_parts(e.map)) for e in cube.edges]
    return Cube(
        cube.diagram, cube.ring, tqft.BETA, cube.resolutions, cube.spaces, edges
    )


@dataclass
class ChainComplexData:
    """Assembled bigraded complex over a coefficient ring."""

    ring: object
    variant: str
    n_plus: int
    n_minus: int
    degrees: list
    basis: dict  # i -> list of (smoothing, word)
    bigrade: dict  # i -> list of (qdeg, adeg); qdeg None when ungraded
    diff: dict  # i -> SparseMatrix  C^i -> C^{i+1}
    diff2: dict = field(default=None)  # BETA: the adeg-raising family
    offsets: dict = field(default_factory=dict)  # (i, u) -> first index of u
    qdeg_graded: bool = True
    adeg_graded: bool = True  # False for the untruncated planar variant

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
    beta = cube.variant == tqft.BETA
    qdeg_graded = ring.preserves_qdeg
    adeg_graded = cube.variant != tqft.GENERIC

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
    diff2 = {} if beta else None
    for i in degrees[:-1]:
        nrows = len(basis[i + 1])
        ncols = len(basis[i])
        m0 = {}
        m2 = {}
        for edge in by_degree.get(i, ()):
            cof = offsets[(i, edge.u)]
            rof = offsets[(i + 1, edge.v)]
            negate = edge.sign_exponent == 1
            parts = edge.map if beta else (edge.map,)
            for target, em in zip((m0, m2), parts):
                for (r, c), v in em.entries.items():
                    target[(rof + r, cof + c)] = ring.neg(v) if negate else v
        diff[i] = SparseMatrix.wrap(ring, nrows, ncols, m0)
        if beta:
            diff2[i] = SparseMatrix.wrap(ring, nrows, ncols, m2)
    return ChainComplexData(
        ring=ring,
        variant=cube.variant,
        n_plus=n_plus,
        n_minus=n_minus,
        degrees=degrees,
        basis=basis,
        bigrade=bigrade,
        diff=diff,
        diff2=diff2,
        offsets=offsets,
        qdeg_graded=qdeg_graded,
        adeg_graded=adeg_graded,
    )


def build_complex(d, ring, variant, choice=None):
    return assemble(build_cube(d, ring, variant), choice)


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
        raise VariantRingMismatchError("not a BETA complex")
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

    Annular variants must preserve adeg exactly; the untruncated planar
    variant may also raise it by 2.  Quantum degrees of entries are
    accounted through their polynomial degree; over ungraded rings only
    the annular degree is checked.
    """
    adeg_shifts = (0, 2) if c.variant == tqft.GENERIC else (0,)
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
    preserved, with qdeg marked ungraded for evaluated parameters."""
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
        variant=c.variant,
        n_plus=c.n_plus,
        n_minus=c.n_minus,
        degrees=list(c.degrees),
        basis={i: list(b) for i, b in c.basis.items()},
        bigrade={i: list(g) for i, g in c.bigrade.items()},
        diff=diff,
        diff2=diff2,
        offsets=dict(c.offsets),
        qdeg_graded=target.preserves_qdeg,
        adeg_graded=c.adeg_graded,
    )
