"""The dotted Temperley-Lieb calculus.

Morphisms are linear combinations, over the bivariate ground ring, of
crossingless planar tangles whose strands carry dots.  Boundary points
are circularly ordered, bottom left-to-right then top right-to-left.
Relations: a closed loop with k dots evaluates to a0^k + a1^k (2 when
undotted), and two dots on a strand rewrite as (a0+a1) once-dotted
minus a0*a1 undotted.  Reduced tangles have no closed loops and at most
one dot per strand.

Spinning a tangle around the annulus turns bottom/top points into
concentric essential circles, and each strand into its own annulus or
cylinder.  So the annular TQFT value of a spun tangle is the tensor
product of one piece per strand: a cap is a merge followed by a death,
a cup a birth followed by a split, and a through strand the identity,
with the strand's dots as a dotted identity on its first leg.  These
linear maps are also how kernel elements of the spinning functor are
detected numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import tqft
from .errors import ArityMismatchError, ParityError, VariantRingMismatchError
from .linalg import SparseMatrix, accumulate, cancel_units
from .ring import A0, A1, E1, E2, BivariatePoly, AlphaEval, RatPolyH


def circle_value(k):
    """A closed loop with k dots: a0^k + a1^k."""
    return A0**k + A1**k


@dataclass(frozen=True)
class DottedTangle:
    """A crossingless (n, m)-tangle with dotted strands.

    ``pairs`` matches circular boundary labels 1..n+m (bottom
    left-to-right, then top right-to-left); ``dots`` counts dots per
    strand, parallel to the sorted pairs; ``closed_loops`` lists dot
    counts of closed components (only before reduction).
    """

    n: int
    m: int
    pairs: tuple
    dots: tuple
    closed_loops: tuple = ()

    @staticmethod
    def make(n, m, pairs, dots=None, closed_loops=()):
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
        order = sorted(
            range(len(pairs)),
            key=lambda i: (min(pairs[i]), max(pairs[i])),
        )
        if dots is None:
            dots = (0,) * len(pairs)
        if len(dots) != len(pairs):
            k = len(pairs)
            raise ValueError(f"{k} strands need {k} dot counts, not {len(dots)}")
        dd = tuple(int(dots[i]) for i in order)
        t = DottedTangle(n, m, norm, dd, tuple(sorted(closed_loops)))
        t.check()
        return t

    def check(self):
        labels = sorted(x for p in self.pairs for x in p)
        if labels != list(range(1, self.n + self.m + 1)):
            raise ValueError("pairs must match boundary labels exactly")
        if len(self.dots) != len(self.pairs):
            raise ValueError("one dot count per strand")
        if any(d < 0 for d in self.dots):
            raise ValueError(f"dot counts {list(self.dots)} must not be negative")
        for (a, b), (c, d) in product(self.pairs, repeat=2):
            if a < c < b < d:
                raise ValueError(f"pairs ({a},{b}) and ({c},{d}) cross")

    def is_reduced(self):
        return not self.closed_loops and all(d <= 1 for d in self.dots)

    def top_position(self, label):
        """Left-to-right position on the top edge for a circular label."""
        if label <= self.n:
            raise ValueError("not a top label")
        return self.n + self.m + 1 - label

    def __str__(self):
        body = ",".join(f"({a},{b})" for a, b in self.pairs)
        dots = ",".join(str(d) for d in self.dots)
        extra = f" loops={list(self.closed_loops)}" if self.closed_loops else ""
        return f"[{body}] dots=[{dots}]{extra}"


@dataclass(frozen=True)
class TLMorphism:
    """Formal combination of reduced tangles with polynomial coefficients."""

    n: int
    m: int
    terms: tuple  # sorted tuple of (DottedTangle, BivariatePoly)

    @staticmethod
    def make(n, m, term_dict):
        items = [
            (t, c) for t, c in term_dict.items() if not c.is_zero()
        ]
        items.sort(key=lambda tc: (tc[0].pairs, tc[0].dots))
        return TLMorphism(n, m, tuple(items))

    def term_dict(self):
        return dict(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c}) {t}" for t, c in self.terms)


def reduce_tangle(t):
    """Rewrite to a combination of reduced tangles.

    Closed loops evaluate to scalars and multiply dotted strands are
    expanded with the two-dot rule; the rewriting terminates because the
    total dot count drops at every step.
    """
    coeff = BivariatePoly.from_int(1)
    for k in t.closed_loops:
        coeff = coeff * circle_value(k)
    work = [(t.pairs, t.dots, coeff)]
    out = {}
    while work:
        pairs, dots, c = work.pop()
        hot = next((i for i, d in enumerate(dots) if d >= 2), None)
        if hot is None:
            key = DottedTangle(t.n, t.m, pairs, dots)
            out[key] = out.get(key, BivariatePoly()) + c
            continue
        d1 = list(dots)
        d1[hot] -= 1
        d2 = list(dots)
        d2[hot] -= 2
        work.append((pairs, tuple(d1), c * E1))
        work.append((pairs, tuple(d2), -(c * E2)))
    return TLMorphism.make(t.n, t.m, out)


def identity_tangle(n):
    pairs = [(i, 2 * n + 1 - i) for i in range(1, n + 1)]
    return DottedTangle.make(n, n, pairs)


def _compose_tangles(f, g):
    """Stack f then g (f at the bottom); returns an unreduced tangle.

    Each layer maps a point to its strand's other end and dots.  A walk
    follows one strand at a time and switches layer at every glued
    point: f's top label x meets g's bottom label glue - x.  It ends at
    an outer point, or back at its start for a closed loop; every closed
    loop passes through f's top, so starting there finds them all.
    """
    n, mid, k = f.n, f.m, g.m
    glue = n + mid + 1
    partner = []
    for t in (f, g):
        ends = {}
        for (a, b), d in zip(t.pairs, t.dots):
            ends[a], ends[b] = (b, d), (a, d)
        partner.append(ends)

    def outer(layer, x):
        return x <= n if layer == 0 else x > mid

    def label(layer, x):
        """The stacked tangle's label of an outer point."""
        return x + layer * (n - mid)

    seen = set()
    pairs, dots, loops = [], [], []
    starts = (
        [(0, x) for x in range(1, n + 1)]
        + [(1, x) for x in range(mid + 1, mid + k + 1)]
        + [(0, x) for x in range(n + 1, glue)]
    )
    for start in starts:
        if start in seen:
            continue
        (layer, x), total = start, 0
        while True:
            y, d = partner[layer][x]
            seen.update(((layer, x), (layer, y)))
            total += d
            if outer(layer, y):
                pairs.append((label(*start), label(layer, y)))
                dots.append(total)
                break
            layer, x = 1 - layer, glue - y
            if (layer, x) == start:
                loops.append(total)
                break
    return DottedTangle.make(n, k, pairs, dots, tuple(loops))


def tl_compose(f, g):
    """Vertical stacking, f then g; arities must chain (n,m) o (m,k)."""
    if f.m != g.n:
        raise ArityMismatchError(f"cannot stack ({f.n},{f.m}) with ({g.n},{g.m})")
    out = {}
    for tf, cf in f.terms:
        for tg, cg in g.terms:
            stacked = _compose_tangles(tf, tg)
            red = reduce_tangle(stacked)
            for t, c in red.terms:
                out[t] = out.get(t, BivariatePoly()) + cf * cg * c
    return TLMorphism.make(f.n, g.m, out)


def enumerate_reduced(n, m):
    """All reduced dotted tangles: non-crossing matchings with at most
    one dot per strand.  Empty when n + m is odd."""
    total = n + m
    if total % 2:
        return []

    def matchings_of(points):
        if not points:
            return [()]
        a = points[0]
        out = []
        for j in range(1, len(points), 2):
            b = points[j]
            for inner in matchings_of(points[1:j]):
                for outer in matchings_of(points[j + 1 :]):
                    out.append(((a, b),) + inner + outer)
        return out

    out = []
    for pairing in matchings_of(tuple(range(1, total + 1))):
        k = len(pairing)
        for bits in product((0, 1), repeat=k):
            out.append(DottedTangle.make(n, m, pairing, bits))
    return out


def bend_to_bottom(t):
    """The isomorphism onto (n+m, 0)-tangles: same circular matching."""
    return DottedTangle.make(t.n + t.m, 0, t.pairs, t.dots, t.closed_loops)


# ---------------------------------------------------------------------------
# spinning into the annular TQFT


def _check_spin_ring(ring):
    """Spinning evaluates over every ring but Q[h]; the refusal keeps
    the wording the CLI has always printed."""
    if isinstance(ring, RatPolyH):
        raise VariantRingMismatchError("cannot spin with variant ANNULAR_H")


@lru_cache(maxsize=None)
def _piece(ring, bottom_legs, parity, dots):
    """The TQFT value of one spun strand on its own circles: a cap (two
    bottom legs), a through strand (one) or a cup (none), with its dots
    on the first leg.  The first leg sits at a slot of the given parity,
    which picks the bases of the legs.  Memoized per process, as
    ``tqft.local_table`` is: a tangle places its pieces, never composes.
    """
    def circles(k):
        return tqft.make_space(ring, [(True, parity + 1 + s) for s in range(k)])

    legs = circles(1 if bottom_legs == 1 else 2)
    dot = tqft.dotted_identity_map(legs, 0, dots) if dots else tqft.identity_map(legs)
    if bottom_legs == 1:
        return dot
    circle = tqft.make_space(ring, [(False, None)])
    if bottom_legs == 2:
        merge = tqft.merge_map(legs, circle, (0, 1), 0, ())
        return tqft.compose(tqft.death_map(circle, 0), tqft.compose(merge, dot))
    split = tqft.split_map(circle, legs, 0, (0, 1), ())
    return tqft.compose(dot, tqft.compose(split, tqft.birth_map(circles(0), 0)))


def _spread(word, slots, k):
    """A piece's word on its legs, placed at those slots of a k-slot word."""
    last = len(slots) - 1
    return sum(1 << (k - 1 - s) for i, s in enumerate(slots) if word >> (last - i) & 1)


def spin_tangle(t, ring):
    """The annular TQFT value of one reduced spun tangle.

    Spun, each strand is its own annulus or cylinder, so the value is the
    tensor product of one piece per strand, placed at its legs' slots.
    Bottom label p is domain slot p - 1 and a top label is the codomain
    slot of its position.  The points on either side of a strand pair up
    among themselves, so a through strand's two slots share a parity and
    a cap's or cup's two alternate.  So the first leg's parity picks a
    piece's bases, and they are the bases of the slots it is placed at.
    """
    _check_spin_ring(ring)
    if not t.is_reduced():
        raise ValueError("spin_tangle needs a reduced tangle")
    dom = tqft.essential_space(t.n, ring)
    cod = tqft.essential_space(t.m, ring)
    terms, qdeg = [(0, 0, ring.one())], 0
    for k, ((a, b), d) in enumerate(zip(t.pairs, t.dots)):
        cols = [x - 1 for x in (a, b) if x <= t.n]
        rows = [t.top_position(x) - 1 for x in (b, a) if x > t.n]
        piece = _piece(ring, len(cols), (cols or rows)[0] % 2, d)
        qdeg += piece.declared_bidegree[0]
        placed = [
            (_spread(r, rows, t.m), _spread(c, cols, t.n), v)
            for (r, c), v in piece.entries.items()
        ]
        if k:
            placed = [
                (r | pr, c | pc, ring.mul(u, v))
                for r, c, u in terms
                for pr, pc, v in placed
            ]
        terms = placed
    entries = {(r, c): v for r, c, v in terms}
    return tqft.LinearMap.wrap(dom, cod, entries, (qdeg, 0))


def spin_evaluate(f, ring):
    """Annular TQFT value of a morphism: the weighted sum of its
    spun reduced tangles."""
    _check_spin_ring(ring)
    dom = tqft.essential_space(f.n, ring)
    cod = tqft.essential_space(f.m, ring)
    entries = {}
    for t, c in f.terms:
        spec = ring.specialize_poly(c)
        spun = spin_tangle(t, ring).entries.items()
        accumulate(ring, entries, ((k, ring.mul(spec, v)) for k, v in spun))
    return tqft.LinearMap.wrap(dom, cod, entries)


def kernel_rank_experiment(n, m, ring):
    """Stack the evaluation matrices of all reduced (n, m)-tangles, one
    row each, and take the rank over the rationals by unit cancellation;
    returns (rank, kernel dimension)."""
    if (n + m) % 2:
        raise ParityError(f"({n},{m}) has odd total boundary")
    if not (isinstance(ring, AlphaEval) and ring.distinct):
        raise VariantRingMismatchError(
            "kernel experiment needs distinct evaluated parameters"
        )
    tangles = enumerate_reduced(n, m)
    entries = {}
    for k, t in enumerate(tangles):
        mat = spin_tangle(t, ring)
        for (r, c), v in mat.entries.items():
            entries[(k, r * (1 << n) + c)] = v
    dim = (1 << n) * (1 << m)
    rank = len(cancel_units(SparseMatrix.wrap(ring, len(tangles), dim, entries))[0])
    return rank, len(tangles) - rank
