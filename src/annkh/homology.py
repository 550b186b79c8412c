"""Smith normal form over Euclidean rings and bigraded homology.

Homology of a specialized complex is computed slice by slice: the
differential preserves (qdeg, adeg) after shifts, so each slice is a
separate matrix problem.  Over evaluated parameters the quantum grading
collapses and slices are taken per (degree, adeg) only.  One pass over
the entries of each d^i buckets them into its slices.  Each slice is
reduced by unit cancellation, then SNF on the remainder: sparse
Gaussian elimination cancels invertible entries until none is left,
and the Smith normal form runs only on the small non-unit matrix that
remains.  Both are sparse eliminations on one row form, with one row
update (``linalg.row_form``, ``linalg.row_subtractor``); the SNF pivots
on an entry of least Euclidean size.  ``cancel_units`` lives in
``linalg`` and is importable from here as well.

The degrees are reduced in order, and each cancellation carries over
to the next degree (Bar-Natan's Gaussian elimination lemma): a unit
pivot (p, q) of d^i takes q out of C^i and p out of C^{i+1}, so d^{i+1}
drops column p before it is reduced.  The row updates of d^i change
only the basis vector of p, which becomes a multiple of the image of
q, so d^{i+1} kills it: the dropped columns lie in the span of the kept
ones, and rank and torsion do not change.  Non-unit SNF pivots are not
isomorphisms, and their rows stay.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import complexes, tqft
from .diagram import is_counterclockwise, nesting_depth
from .errors import UnsupportedRingError
from .linalg import SparseMatrix, cancel_units, row_form, row_subtractor
from .ring import alpha_eval


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass
class SNFResult:
    invariants: list  # nonzero diagonal values, each dividing the next
    rank: int


def smith_normal_form(m):
    """Diagonalize over a Euclidean ring with a divisibility chain.

    Sparse Euclidean elimination on the row form of ``m``: pivot on an
    entry of least Euclidean size (then leftmost, then topmost), clear
    its column by row operations, then its row by column operations.  A
    nonzero remainder is a smaller entry and becomes the next pivot; a
    pivot left alone in its row and column is a diagonal entry.
    """
    ring = m.ring
    if not ring.is_euclidean:
        raise UnsupportedRingError(f"Smith normal form over {ring.kind}")
    rows, cols = row_form(m)
    subtract = row_subtractor(ring, rows, cols)
    size, divmod_, is_zero = ring.size, ring.divmod, ring.is_zero
    d = []
    while rows:
        _, c, r = min(
            (size(v), c, r) for r, row in rows.items() for c, v in row.items()
        )
        prow = rows[r]
        p = prow[c]
        for i in cols[c] - {r}:
            subtract(i, divmod_(rows[i][c], p)[0], prow)
        if len(cols[c]) > 1:
            continue
        for j in [j for j in prow if j != c]:  # only row r has column c
            prow[j] = divmod_(prow[j], p)[1]
            if is_zero(prow[j]):
                del prow[j]
                cols[j].discard(r)
        if len(prow) == 1:
            del rows[r], cols[c]
            d.append(p)
    # pairwise gcd and lcm turn the diagonal into a divisibility chain
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g, b = d[i], d[j]
            while not is_zero(b):
                g, b = b, divmod_(g, b)[1]
            d[i], d[j] = g, divmod_(ring.mul(d[i], d[j]), g)[0]
    invariants = [ring.normalize_unit(v)[1] for v in d]
    return SNFResult(invariants=invariants, rank=len(invariants))


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


def _slice_blocks(m, row_slices, col_slices, dropped):
    """The nonzero slices of ``m`` in one pass over its entries: key ->
    (row positions, block).  Block columns are the slice's columns not
    in ``dropped``, in order.  An entry joining two different slices is
    dropped: over Q[h] that loses every h-term (ROADMAP item 1)."""
    where = {}  # row -> (key, position in slice); col_where likewise
    for key, rows in row_slices.items():
        where.update((r, (key, j)) for j, r in enumerate(rows))
    cols = {
        key: [p for p in ps if p not in dropped]
        for key, ps in col_slices.items()
        if key in row_slices
    }
    col_where = {}
    for key, ps in cols.items():
        col_where.update((p, (key, j)) for j, p in enumerate(ps))
    blocks = {}
    for (r, c), v in m.entries.items():
        hit = col_where.get(c)
        if hit is not None:
            key, j = where[r]
            if key == hit[0]:
                blocks.setdefault(key, {})[(j, hit[1])] = v
    return {
        key: (
            row_slices[key],
            SparseMatrix.wrap(m.ring, len(row_slices[key]), len(cols[key]), b),
        )
        for key, b in blocks.items()
    }


def homology(c):
    """Kernel mod image per bigrade slice: ranks and torsion from unit
    cancellation, then SNF on the remainder.

    The degrees are reduced in order, and d^i drops the columns of the
    generators that d^{i-1} cancelled against a unit.  Those columns
    lie in the span of the kept ones, so rank and torsion are unchanged.
    Each free rank still uses the slice's full dimension."""
    ring = c.ring
    if not ring.is_euclidean:
        raise UnsupportedRingError(f"homology over {ring.kind}")
    slices = {i: _slices(c, i) for i in c.degrees}
    slice_ranks = {}
    slice_tors = {}
    cancelled = set()  # positions of C^i cancelled against a unit of d^{i-1}
    for i in c.degrees[:-1]:
        blocks = _slice_blocks(c.diff[i], slices[i + 1], slices[i], cancelled)
        cancelled = set()
        for key, (rows, sub) in blocks.items():
            pivots, rest = cancel_units(sub)
            cancelled.update(rows[p] for p in pivots)
            rank = len(pivots)
            if not rest.is_zero():
                res = smith_normal_form(rest)
                rank += res.rank
                tors = [v for v in res.invariants if not ring.is_unit(v)]
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
        total += len(cancel_units(with_gens)[0]) - len(cancel_units(d_in)[0])
    return total
