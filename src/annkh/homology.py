"""Smith normal form over Euclidean rings and bigraded homology.

Homology of a specialized complex is computed slice by slice: the
differential preserves (qdeg, adeg) after shifts, so each slice is a
separate matrix problem.  Over evaluated parameters the quantum grading
collapses and slices are taken per (degree, adeg) only.  One pass over
the edge blocks of each d^i (``ChainComplexData.blocks``) adds each
block's offsets and puts every entry into the row form of its slice:
row dicts and column sets on the positions of C^{i+1} and C^i, with no
renumbering and no assembled differential.  Unit cancellation
(``linalg.cancel_units``) eliminates that row form in place until no
invertible entry is left; only a remainder that is not empty is
renumbered (``linalg.packed``) into the small non-unit matrix the Smith
normal form runs on.  Both are sparse eliminations on a row form, with
one row update (``linalg.row_subtractor``); the SNF pivots on an entry
of least Euclidean size.  ``cancel_units`` is importable from here as
well.  The canonical generators read the blocks too: a generator is a
cycle when no block leaving its vertex has an entry in its column.

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

from collections import Counter, defaultdict
from dataclasses import dataclass

from . import complexes, tqft
from .errors import UnsupportedRingError
from .frobenius import CONVENTIONS
from .linalg import cancel_units, packed, row_form, row_subtractor
from .ring import LEE, alpha_eval


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
        raise UnsupportedRingError(f"Smith normal form over {ring}")
    rows, cols = row_form(m.entries)
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


def homology(c):
    """Kernel mod image per bigrade slice: ranks and torsion from unit
    cancellation, then SNF on the remainder.

    One pass over the edge blocks of d^i puts each entry into the row
    form of its slice, on the positions of C^{i+1} and C^i.  The degrees
    are reduced in order, and the pass skips the columns of the
    generators that d^{i-1} cancelled against a unit.  Those columns lie
    in the span of the kept ones, so rank and torsion are unchanged.
    Each free rank still uses the slice's full dimension."""
    ring = c.ring
    if not ring.is_euclidean:
        raise UnsupportedRingError(f"homology over {ring}")
    qg, ag = c.qdeg_graded, c.adeg_graded
    # slice key per position, an ungraded direction None: over a ring
    # that keeps both, bigrade itself, whose tuples vertices share
    keys = c.bigrade if qg and ag else {
        i: [(q if qg else None, a if ag else None) for q, a in c.bigrade[i]]
        for i in c.degrees
    }
    slice_ranks, slice_tors = {}, {}
    cancelled = set()  # positions of C^i cancelled against a unit of d^{i-1}
    for i in c.degrees[:-1]:
        row_keys, col_keys = keys[i + 1], keys[i]
        forms = defaultdict(lambda: ({}, {}))  # slice key -> (rows, cols)
        for rof, cof, items in c.blocks.get(i, ()):
            for (r, col), v in items:
                r += rof
                col += cof
                key = col_keys[col]
                # an entry joining two slices is dropped: ROADMAP item 1 (Q[h])
                if key != row_keys[r] or col in cancelled:
                    continue
                rows, cols = forms[key]
                rows.setdefault(r, {})[col] = v
                cols.setdefault(col, set()).add(r)
        cancelled = set()
        for key, (rows, cols) in forms.items():
            pivots = cancel_units(ring, rows, cols)
            cancelled.update(pivots)
            rank = len(pivots)
            if rows:
                res = smith_normal_form(packed(ring, rows, cols))
                rank += res.rank
                tors = [v for v in res.invariants if not ring.is_unit(v)]
                if tors:
                    slice_tors[(i + 1, key)] = tors
            slice_ranks[(i, key)] = rank
    entries = {}
    for i in c.degrees:
        for key, dim in Counter(keys[i]).items():
            free = dim - slice_ranks.get((i, key), 0) - slice_ranks.get((i - 1, key), 0)
            tors = tuple(slice_tors.get((i, key), ()))
            if free or tors:
                entries[(i, *key)] = (free, tors)
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


def canonical_generator(d, choice):
    """The distinguished cycle attached to an orientation.

    Each circle of the oriented resolution gets the mod-2 count of
    circles separating it from infinity, plus one when it runs
    counterclockwise, both read off per-edge tables
    (``AnnularDiagram.canonical_labels``); 0 becomes the letter a and 1
    the letter b.  The
    slot conventions of the resolution's state space over the Lee ring
    say which basis vector each letter picks
    (:data:`annkh.frobenius.CONVENTIONS`), and the annular degree is the
    word's in that space, so the winding check of
    :func:`verify_canonical` checks that table too.
    """
    return _canonical(d, choice)[0]


def _canonical(d, choice):
    """An orientation's canonical generator and oriented resolution."""
    u, rd = d.oriented_resolution(choice)
    space = tqft.state_space(rd, LEE)
    letters = tuple("ab"[lab] for lab in d.canonical_labels(rd, choice))
    word = 0
    for letter, slot in zip(letters, space.slots):
        word = (word << 1) | CONVENTIONS[slot.convention].letters.index(letter)
    _, n_minus = d.n_plus_minus()
    return CanonicalGenerator(
        orientation=tuple(choice),
        smoothing=u,
        letters=letters,
        word=word,
        adeg=space.bidegrees[word][1],
        degree=sum(u) - n_minus,
    ), rd


def generator_vector_index(c, gen):
    """Position of the generator in its chain group of the complex."""
    return c.offset(gen.degree, gen.smoothing) + gen.word


@dataclass
class CanonicalReport:
    generator: CanonicalGenerator
    adeg: int
    expected_adeg: int
    is_cycle: bool

    @property
    def ok(self):
        return self.is_cycle and self.adeg == self.expected_adeg


def verify_canonical(d, choice, c=None):
    """Check the generator is a cycle and its annular degree matches
    (-1)^m times the winding number of the oriented link.

    The generator's column meets only the blocks of its degree whose
    column offset is its vertex's, and blocks are disjoint, so it is a
    cycle exactly when none of their items has its word as column."""
    if c is None:
        c = lee_complex(d)
    gen, rd = _canonical(d, choice)
    m = rd.n_essential
    w = sum(circ.winding for circ in rd.circles if circ.essential)
    expected = w if m % 2 == 0 else -w
    at = c.offset(gen.degree, gen.smoothing)
    is_cycle = not any(
        col == gen.word
        for _, cof, items in c.blocks.get(gen.degree, ())
        if cof == at
        for (_, col), _ in items
    )
    return CanonicalReport(
        generator=gen,
        adeg=gen.adeg,
        expected_adeg=expected,
        is_cycle=is_cycle,
    )


def canonical_span_rank(c, gens):
    """Rank spanned by the classes of the canonical generators ``gens``
    in the homology of the Lee complex ``c``: the rank the generators add
    to the boundaries, each rank counted by unit cancellation (over a
    field every entry is a unit).  d^{i-1} is gathered from its blocks
    at their offsets."""
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.degree, []).append(g)
    ring = c.ring
    total = 0
    for i, gg in by_degree.items():
        d_in = {
            (rof + r, cof + col): v
            for rof, cof, items in c.blocks.get(i - 1, ())
            for (r, col), v in items
        }
        ncols = c.rank(i - 1)
        spanned = dict(d_in)
        for j, g in enumerate(gg):
            spanned[(generator_vector_index(c, g), ncols + j)] = ring.one()
        total += len(cancel_units(ring, *row_form(spanned)))
        total -= len(cancel_units(ring, *row_form(d_in)))
    return total
