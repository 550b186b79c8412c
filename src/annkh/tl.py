"""The dotted Temperley-Lieb calculus.

Morphisms are linear combinations, over the bivariate ground ring, of
crossingless planar tangles whose strands carry dots.  Boundary points
are circularly ordered, bottom left-to-right then top right-to-left.
Relations: a closed loop with k dots evaluates to a0^k + a1^k (2 when
undotted), and two dots on a strand rewrite as (a0+a1) once-dotted
minus a0*a1 undotted.  Reduced tangles have no closed loops and at most
one dot per strand.

Spinning a tangle around the annulus turns bottom/top points into
concentric essential circles; caps become merges followed by deaths,
cups become births followed by splits, and dots become dotted identity
cobordisms.  Evaluating with the annular TQFT then yields linear maps,
which is also how kernel elements of the spinning functor are detected
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import tqft
from .errors import (
    ArityMismatchError,
    InvariantError,
    ParityError,
    VariantRingMismatchError,
)
from .linalg import SparseMatrix, cancel_units
from .ring import A0, A1, E1, E2, BivariatePoly, GENERIC, AlphaEval, RatPolyH


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

    def scaled(self, poly):
        return TLMorphism.make(
            self.n, self.m, {t: c * poly for t, c in self.terms}
        )

    def plus(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise ArityMismatchError("sum of morphisms of different shape")
        out = dict(self.terms)
        for t, c in other.terms:
            out[t] = out.get(t, BivariatePoly()) + c
        return TLMorphism.make(self.n, self.m, out)

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


def morphism(t):
    return reduce_tangle(t)


def identity_tangle(n):
    pairs = [(i, 2 * n + 1 - i) for i in range(1, n + 1)]
    return DottedTangle.make(n, n, pairs)


def _compose_tangles(f, g):
    """Stack f then g (f at the bottom); returns an unreduced tangle."""
    # nodes: ("b", i) bottom of f, ("m", p) glued level, ("t", p) top of g
    def f_node(label):
        if label <= f.n:
            return ("b", label)
        return ("m", f.top_position(label))

    def g_node(label):
        if label <= g.n:
            return ("m", label)
        return ("t", g.top_position(label))

    strands = []
    for (a, b), d in zip(f.pairs, f.dots):
        strands.append((f_node(a), f_node(b), d))
    for (a, b), d in zip(g.pairs, g.dots):
        strands.append((g_node(a), g_node(b), d))
    incident = {}
    for sid, (u, v, d) in enumerate(strands):
        incident.setdefault(u, []).append(sid)
        incident.setdefault(v, []).append(sid)

    def other_end(sid, node):
        u, v, _ = strands[sid]
        return v if node == u else u

    seen = [False] * len(strands)
    open_paths = []
    loops = []
    endpoints = sorted(
        n for n in incident if n[0] != "m"
    )
    for start in endpoints:
        sid = incident[start][0]
        if seen[sid]:
            continue
        node = start
        total = 0
        while True:
            seen[sid] = True
            total += strands[sid][2]
            node = other_end(sid, node)
            if node[0] != "m":
                open_paths.append((start, node, total))
                break
            a, b = incident[node]
            sid = b if a == sid else a
    for sid0 in range(len(strands)):
        if seen[sid0]:
            continue
        total = 0
        sid = sid0
        node = strands[sid][0]
        while True:
            seen[sid] = True
            total += strands[sid][2]
            node = other_end(sid, node)
            a, b = incident[node]
            nxt = b if a == sid else a
            if nxt == sid0 and node == strands[sid0][0]:
                break
            sid = nxt
        loops.append(total)

    nn, kk = f.n, g.m

    def out_label(node):
        kind, p = node
        if kind == "b":
            return p
        return nn + kk + 1 - p

    pairs = []
    dots = []
    for u, v, d in open_paths:
        pairs.append((out_label(u), out_label(v)))
        dots.append(d)
    return DottedTangle.make(nn, kk, pairs, dots, tuple(loops))


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


def _classify_pairs(t):
    bb, tt, thru = [], [], []
    for idx, (a, b) in enumerate(t.pairs):
        a_bot = a <= t.n
        b_bot = b <= t.n
        if a_bot and b_bot:
            bb.append(idx)
        elif not a_bot and not b_bot:
            tt.append(idx)
        else:
            thru.append(idx)
    return bb, tt, thru


def spin_tangle(t, ring):
    """The annular TQFT value of one reduced spun tangle."""
    _check_spin_ring(ring)
    if not t.is_reduced():
        raise ValueError("spin_tangle needs a reduced tangle")
    bb, tt, thru = _classify_pairs(t)

    def essentials(k):
        return tqft.essential_space(k, ring)

    total = tqft.identity_map(essentials(t.n))

    # tokens at radial slots, innermost first
    cur = []
    for p in range(1, t.n + 1):
        idx = next(i for i, pr in enumerate(t.pairs) if p in pr)
        a, b = t.pairs[idx]
        if idx in bb:
            cur.append(("bb", idx, "l" if p == a else "r", None))
        else:
            top = t.top_position(b if p == a else a)
            cur.append(("thru", idx, None, top))

    def apply(m):
        nonlocal total
        total = tqft.compose(m, total)

    # dots on through strands act first, at their bottom positions
    for slot, tok in enumerate(cur):
        if tok[0] == "thru" and t.dots[tok[1]]:
            apply(tqft.dotted_identity_map(total.codomain, slot, t.dots[tok[1]]))

    # caps: innermost bottom-bottom pairs first
    for idx in sorted(bb, key=lambda i: t.pairs[i][1] - t.pairs[i][0]):
        i = next(s for s, tok in enumerate(cur) if tok[1] == idx)
        if cur[i + 1][1] != idx:
            raise InvariantError(f"capped legs of strand {idx} are not adjacent")
        space = total.codomain
        if t.dots[idx]:
            apply(tqft.dotted_identity_map(space, i, t.dots[idx]))
            space = total.codomain
        k = len(cur)
        mid = tqft.make_space(
            ring, [(False, None)] + [(True, s + 1) for s in range(k - 2)]
        )
        pairs = [
            (s, 1 + (s if s < i else s - 2))
            for s in range(k)
            if s not in (i, i + 1)
        ]
        apply(tqft.merge_map(space, mid, (i, i + 1), 0, pairs))
        apply(tqft.death_map(mid, 0))
        del cur[i : i + 2]

    # cups: outermost top-top pairs first
    for idx in sorted(
        tt, key=lambda i: t.pairs[i][0] - t.pairs[i][1]
    ):
        a, b = t.pairs[idx]
        t1, t2 = sorted((t.top_position(a), t.top_position(b)))
        pos = sum(1 for tok in cur if tok[3] < t1)
        k = len(cur)
        apply(tqft.birth_map(total.codomain, 0))
        cod = essentials(k + 2)
        pairs = [
            (1 + s, s if s < pos else s + 2) for s in range(k)
        ]
        apply(tqft.split_map(total.codomain, cod, 0, (pos, pos + 1), pairs))
        cur[pos:pos] = [("tt", idx, "l", t1), ("tt", idx, "r", t2)]
        if t.dots[idx]:
            apply(tqft.dotted_identity_map(total.codomain, pos, t.dots[idx]))

    tops = [tok[3] for tok in cur]
    if tops != sorted(tops) or len(tops) != t.m:
        raise InvariantError(f"spun top positions {tops} are not {t.m} in order")
    return total


def spin_evaluate(f, ring):
    """Annular TQFT value of a morphism: the weighted sum of its
    spun reduced tangles."""
    _check_spin_ring(ring)
    dom = tqft.essential_space(f.n, ring)
    cod = tqft.essential_space(f.m, ring)
    total = tqft.LinearMap.wrap(dom, cod, {})
    for t, c in f.terms:
        spec = ring.specialize_poly(c)
        total = total.add(spin_tangle(t, ring).scale(spec))
    return total


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
        mat = spin_tangle(t, GENERIC).specialize(ring)
        for (r, c), v in mat.entries.items():
            entries[(k, r * (1 << n) + c)] = v
    dim = (1 << n) * (1 << m)
    rank = cancel_units(SparseMatrix.wrap(ring, len(tangles), dim, entries))[0]
    return rank, len(tangles) - rank
