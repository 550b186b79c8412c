"""Smith normal form over Euclidean rings and bigraded homology.

Homology of a specialized complex is computed slice by slice: the
differential preserves (qdeg, adeg) after shifts, so each slice is a
separate matrix problem.  Over evaluated parameters the quantum grading
collapses and slices are taken per (degree, adeg) only.  Each slice is
reduced by unit cancellation, then SNF on the remainder: sparse
Gaussian elimination cancels invertible entries until none is left,
and the dense Smith normal form runs only on the small non-unit matrix
that remains.  ``cancel_units`` lives in ``linalg`` and is importable
from here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import complexes, tqft
from .diagram import is_counterclockwise, nesting_depth
from .errors import UnsupportedRingError
from .linalg import SparseMatrix, cancel_units
from .ring import alpha_eval


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass
class SNFResult:
    invariants: list  # nonzero diagonal values, each dividing the next
    rank: int


def smith_normal_form(m):
    """Diagonalize over a Euclidean ring with a divisibility chain.

    Pivots are chosen with minimal Euclidean size, breaking ties at the
    leftmost column, which keeps coefficient growth tame at this scale.
    """
    ring = m.ring
    if not ring.is_euclidean:
        raise UnsupportedRingError(f"Smith normal form over {ring.kind}")
    A = m.to_dense()
    nr, nc = m.nrows, m.ncols

    def row_op(i, j, q):  # row_i -= q * row_j
        for t in range(nc):
            A[i][t] = ring.sub(A[i][t], ring.mul(q, A[j][t]))

    def col_op(i, j, q):  # col_i -= q * col_j
        for t in range(nr):
            A[t][i] = ring.sub(A[t][i], ring.mul(q, A[t][j]))

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        if i != j:
            for t in range(nr):
                A[t][i], A[t][j] = A[t][j], A[t][i]

    invariants = []
    r = 0
    while r < nr and r < nc:
        best = None
        for j in range(r, nc):
            for i in range(r, nr):
                v = A[i][j]
                if ring.is_zero(v):
                    continue
                key = (ring.size(v), j, i)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            break
        _, bi, bj = best
        swap_rows(r, bi)
        swap_cols(r, bj)
        while True:
            changed = False
            for i in range(r + 1, nr):
                if ring.is_zero(A[i][r]):
                    continue
                q, rem = ring.divmod(A[i][r], A[r][r])
                row_op(i, r, q)
                if not ring.is_zero(rem):
                    swap_rows(r, i)
                    changed = True
            for j in range(r + 1, nc):
                if ring.is_zero(A[r][j]):
                    continue
                q, rem = ring.divmod(A[r][j], A[r][r])
                col_op(j, r, q)
                if not ring.is_zero(rem):
                    swap_cols(r, j)
                    changed = True
            if changed:
                continue
            if any(
                not ring.is_zero(A[i][r]) for i in range(r + 1, nr)
            ) or any(not ring.is_zero(A[r][j]) for j in range(r + 1, nc)):
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(r + 1, nr):
                for j in range(r + 1, nc):
                    if ring.is_zero(A[i][j]):
                        continue
                    _, rem = ring.divmod(A[i][j], A[r][r])
                    if not ring.is_zero(rem):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for t in range(nc):
                A[r][t] = ring.add(A[r][t], A[offender][t])
        # keep only the normalized pivot: row r is zero beyond it and
        # is never read again
        invariants.append(ring.normalize_unit(A[r][r])[1])
        r += 1
    return SNFResult(invariants=invariants, rank=len(invariants))


def _unit_free_torsion(ring, invariants):
    return [v for v in invariants if not ring.is_unit(v)]


# ---------------------------------------------------------------------------
# bigraded homology


@dataclass
class BigradedHomology:
    ring: object
    entries: dict  # (i, q, a) -> (free rank, torsion); ungraded q or a is None

    def total_rank(self):
        return sum(rank for rank, _ in self.entries.values())

    def rank_table(self):
        """Hashable rank/torsion table for invariance comparisons."""
        return {
            key: (rank, tuple(self.ring.to_str(t) for t in tors))
            for key, (rank, tors) in self.entries.items()
        }


def _slices(c, i):
    """Positions per preserved-grading slice; an ungraded direction
    collapses to None in the key."""
    out = {}
    for pos, (q, a) in enumerate(c.bigrade[i]):
        key = (q if c.qdeg_graded else None, a if c.adeg_graded else None)
        out.setdefault(key, []).append(pos)
    return out


def homology(c):
    """Kernel mod image per bigrade slice: ranks and torsion from unit
    cancellation, then SNF on the remainder."""
    ring = c.ring
    if not ring.is_euclidean:
        raise UnsupportedRingError(f"homology over {ring.kind}")
    slices = {i: _slices(c, i) for i in c.degrees}
    slice_ranks = {}
    slice_tors = {}
    for i in c.degrees[:-1]:
        dst = slices[i + 1]
        for key, cols in slices[i].items():
            rows = dst.get(key, [])
            if not rows:
                continue
            sub = c.diff[i].submatrix(rows, cols)
            if sub.is_zero():
                continue
            rank, rest = cancel_units(sub)
            if not rest.is_zero():
                res = smith_normal_form(rest)
                rank += res.rank
                tors = _unit_free_torsion(ring, res.invariants)
                if tors:
                    slice_tors[(i + 1, key)] = tors
            slice_ranks[(i, key)] = rank
    entries = {}
    for i in c.degrees:
        for key, idxs in slices[i].items():
            dim = len(idxs)
            rank_out = slice_ranks.get((i, key), 0)
            rank_in = slice_ranks.get((i - 1, key), 0)
            free = dim - rank_out - rank_in
            tors = tuple(slice_tors.get((i, key), ()))
            if free or tors:
                q, a = key
                entries[(i, q, a)] = (free, tors)
    return BigradedHomology(ring, entries)


def poincare_table(h):
    """Rows (i, q, a, rank, torsion-string), stably sorted.

    Gradings the theory does not preserve are shown as ``*``.
    """

    def sort_key(item):
        (i, q, a), _ = item
        return (i, q if q is not None else 0, a if a is not None else 0)

    rows = []
    for (i, q, a), (rank, tors) in sorted(h.entries.items(), key=sort_key):
        tstr = ",".join(h.ring.to_str(t) for t in tors) if tors else "-"
        rows.append(
            (
                i,
                q if q is not None else "*",
                a if a is not None else "*",
                rank,
                tstr,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# the localized (Lee-type) theory


_LEE_RING = alpha_eval(0, 1)  # built once: it holds Fractions


def lee_complex(d, q0=0, q1=1):
    ring = alpha_eval(q0, q1)
    return complexes.build_complex(d, ring)


def lee_rank(d, q0=0, q1=1):
    """Total localized homology rank; equals 2^(number of components)."""
    return homology(lee_complex(d, q0, q1)).total_rank()


# ---------------------------------------------------------------------------
# canonical generators


@dataclass(frozen=True)
class CanonicalGenerator:
    orientation: tuple
    smoothing: tuple
    letters: tuple  # 'a'/'b' per circle, in slot order
    word: int  # basis word of the smoothing's state space, localized bases
    adeg: int
    degree: int  # homological degree of the smoothing


def _letter_to_bit(letter, circle):
    if not circle.essential:
        return 0 if letter == "a" else 1
    if circle.essential_index % 2 == 1:
        return 1 if letter == "a" else 0
    return 0 if letter == "a" else 1


def canonical_generator(d, choice):
    """The distinguished cycle attached to an orientation.

    Each circle of the oriented resolution gets the mod-2 count of
    circles separating it from infinity, plus one when it runs
    counterclockwise; 0 becomes the letter a and 1 the letter b, which
    pick out basis vectors of the localized theory.  The annular degree
    is the word's in the resolution's state space over the Lee ring, so
    the winding check of :func:`verify_canonical` checks that table too.
    """
    u, rd = d.oriented_resolution(choice)
    letters = []
    word = 0
    for idx, c in enumerate(rd.circles):
        ccw = is_counterclockwise(c)
        lab = (nesting_depth(rd, idx) + (1 if ccw else 0)) % 2
        letter = "a" if lab == 0 else "b"
        letters.append(letter)
        word = (word << 1) | _letter_to_bit(letter, c)
    _, n_minus = d.n_plus_minus()
    space = tqft.state_space(rd, _LEE_RING)
    return CanonicalGenerator(
        orientation=tuple(choice),
        smoothing=u,
        letters=tuple(letters),
        word=word,
        adeg=space.bidegrees[word][1],
        degree=sum(u) - n_minus,
    )


def generator_vector_index(c, gen):
    """Position of the generator in its chain group of the complex."""
    return c.offset(gen.degree, gen.smoothing) + gen.word


@dataclass
class CanonicalReport:
    orientation: tuple
    adeg: int
    expected_adeg: int
    is_cycle: bool

    @property
    def ok(self):
        return self.is_cycle and self.adeg == self.expected_adeg


def verify_canonical(d, choice, c=None):
    """Check the generator is a cycle and its annular degree matches
    (-1)^m times the winding number of the oriented link."""
    if c is None:
        c = lee_complex(d)
    gen = canonical_generator(d, choice)
    _, rd = d.oriented_resolution(choice)
    m = rd.n_essential
    w = sum(circ.winding for circ in rd.circles if circ.essential)
    expected = w if m % 2 == 0 else -w
    col = generator_vector_index(c, gen)
    i = gen.degree
    is_cycle = True
    if i in c.diff:
        is_cycle = all(cc != col for (_, cc) in c.diff[i].entries)
    return CanonicalReport(
        orientation=tuple(choice),
        adeg=gen.adeg,
        expected_adeg=expected,
        is_cycle=is_cycle,
    )


def canonical_span_rank(d, c=None):
    """Rank spanned by all canonical generator classes in the localized
    homology: the rank the generators add to the boundaries, each rank
    counted by unit cancellation (over a field every entry is a unit).
    ``c`` is the diagram's Lee complex when the caller has built it."""
    from .diagram import all_orientations

    if c is None:
        c = lee_complex(d)
    gens = [canonical_generator(d, o) for o in all_orientations(d)]
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.degree, []).append(g)
    ring = c.ring
    total = 0
    for i, gg in by_degree.items():
        dim = c.rank(i)
        d_in = c.diff.get(i - 1) or SparseMatrix.zeros(ring, dim, 0)
        spanned = dict(d_in.entries)
        for j, g in enumerate(gg):
            spanned[(generator_vector_index(c, g), d_in.ncols + j)] = ring.one()
        with_gens = SparseMatrix.wrap(ring, dim, d_in.ncols + len(gg), spanned)
        total += cancel_units(with_gens)[0] - cancel_units(d_in)[0]
    return total
