import math
import random
import time
from itertools import product

import pytest

from annkh import frobenius, tl, tqft
from annkh.errors import ArityMismatchError, ParityError
from annkh.ring import (
    A0, A1, E1, E2, GENERIC, GF, INT, QH, RAT, BivariatePoly, alpha_eval,
)
from conftest import compose_tangles_oracle, reduce_tangle_oracle, spin_tangle_oracle

EV = alpha_eval(0, 1)
ONE = BivariatePoly.from_int(1)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def strand(dots=0):
    return tl.DottedTangle.make(1, 1, [(1, 2)], [dots])


def test_circle_values():
    assert tl.circle_value(0) == BivariatePoly.from_int(2)
    assert tl.circle_value(1) == E1
    for k in range(2, 6):
        assert tl.circle_value(k) == A0**k + A1**k


def test_planarity_check():
    with pytest.raises(ValueError):
        tl.DottedTangle.make(2, 2, [(1, 3), (2, 4)])
    tl.DottedTangle.make(2, 2, [(1, 4), (2, 3)])
    tl.DottedTangle.make(2, 2, [(1, 2), (3, 4)])


def test_reduce_undotted_loop_beside_strand():
    t = tl.DottedTangle.make(1, 1, [(1, 2)], [0], closed_loops=(0,))
    red = tl.reduce_tangle(t)
    assert red.term_dict() == {strand(): BivariatePoly.from_int(2)}


def test_reduce_three_dot_loop():
    t = tl.DottedTangle.make(0, 0, [], [], closed_loops=(3,))
    red = tl.reduce_tangle(t)
    empty = tl.DottedTangle.make(0, 0, [])
    assert red.term_dict() == {empty: A0**3 + A1**3}


def test_two_dot_rewrite():
    red = tl.reduce_tangle(strand(2))
    assert red.term_dict() == {strand(1): E1, strand(0): -E2}


def test_reduce_matches_algebra_on_many_dots():
    # d dots on a strand must equal X^d expanded in {1, X - a0}-free form:
    # the coefficients of 1 and X in X^d reduced by X^2 = E1 X - E2
    for d in range(2, 7):
        red = tl.reduce_tangle(strand(d)).term_dict()
        c0 = red.get(strand(0), BivariatePoly())
        c1 = red.get(strand(1), BivariatePoly())
        p0, p1 = BivariatePoly.from_int(1), BivariatePoly()
        for _ in range(d):
            p0, p1 = -E2 * p1, p0 + E1 * p1
        assert (c0, c1) == (p0, p1)


def test_reduce_sums_equal_dot_states_before_expanding():
    # the binary expansion makes Fib(60) work items for this strand
    start = time.perf_counter()
    red = tl.reduce_tangle(strand(60)).term_dict()
    assert time.perf_counter() - start < 1.0
    p0, p1 = BivariatePoly.from_int(1), BivariatePoly()
    for _ in range(60):
        p0, p1 = -E2 * p1, p0 + E1 * p1
    assert red == {strand(0): p0, strand(1): p1}


@pytest.mark.parametrize(
    "n, m, pairs, loops",
    [
        (1, 1, [(1, 2)], ()),
        (2, 2, [(1, 4), (2, 3)], (2,)),
        (2, 4, [(1, 6), (2, 3), (4, 5)], ()),
        (3, 3, [(1, 6), (2, 5), (3, 4)], (0, 1)),
    ],
)
def test_reduce_matches_the_binary_expansion(n, m, pairs, loops):
    # every dot count up to 12 dots in all on the strands
    count = 0
    for dots in product(range(13), repeat=len(pairs)):
        if sum(dots) > 12:
            continue
        t = tl.DottedTangle.make(n, m, pairs, dots, loops)
        assert tl.reduce_tangle(t) == reduce_tangle_oracle(t), dots
        count += 1
    assert count > 12


def test_reduction_confluence_random_orders():
    rng = random.Random(21)
    base = tl.reduce_tangle(
        tl.DottedTangle.make(2, 2, [(1, 4), (2, 3)], [3, 4], closed_loops=(2,))
    ).term_dict()
    for _ in range(10):
        # re-run the rewriting with a randomized work order
        work = [((((1, 4), (2, 3))), (3, 4), tl.circle_value(2))]
        out = {}
        while work:
            idx = rng.randrange(len(work))
            pairs, dots, c = work.pop(idx)
            hot = [i for i, d in enumerate(dots) if d >= 2]
            if not hot:
                key = tl.DottedTangle.make(2, 2, pairs, dots)
                out[key] = out.get(key, BivariatePoly()) + c
                continue
            i = rng.choice(hot)
            d1 = list(dots)
            d1[i] -= 1
            d2 = list(dots)
            d2[i] -= 2
            work.append((pairs, tuple(d1), c * E1))
            work.append((pairs, tuple(d2), -(c * E2)))
        out = {k: v for k, v in out.items() if not v.is_zero()}
        assert out == base


def test_compose_identity():
    rng = random.Random(22)
    ident = tl.reduce_tangle(tl.identity_tangle(2))
    for t in tl.enumerate_reduced(2, 2):
        f = tl.reduce_tangle(t)
        assert tl.tl_compose(ident, f).terms == f.terms
        assert tl.tl_compose(f, ident).terms == f.terms


def test_compose_cup_cap():
    cup = tl.reduce_tangle(tl.DottedTangle.make(0, 2, [(1, 2)]))
    cap = tl.reduce_tangle(tl.DottedTangle.make(2, 0, [(1, 2)]))
    got = tl.tl_compose(cup, cap)
    empty = tl.DottedTangle.make(0, 0, [])
    assert got.term_dict() == {empty: BivariatePoly.from_int(2)}
    dotted_cup = tl.reduce_tangle(tl.DottedTangle.make(0, 2, [(1, 2)], [1]))
    got = tl.tl_compose(dotted_cup, cap)
    assert got.term_dict() == {empty: E1}


def test_compose_arity_check():
    f = tl.reduce_tangle(tl.identity_tangle(2))
    g = tl.reduce_tangle(tl.identity_tangle(3))
    with pytest.raises(ArityMismatchError):
        tl.tl_compose(f, g)


def _redotted(t, rng, most):
    """The tangle with fresh random dot counts of at most ``most``."""
    dots = [rng.randint(0, most) for _ in t.pairs]
    return tl.DottedTangle.make(t.n, t.m, t.pairs, dots)


def test_stacking_matches_the_strand_graph_oracle():
    rng = random.Random(24)
    checked = loops = 0
    for n, mid, k in product(range(5), repeat=3):
        if (n + mid) % 2 or (mid + k) % 2:
            continue
        fs, gs = tl.enumerate_reduced(n, mid), tl.enumerate_reduced(mid, k)
        for _ in range(10):
            f = _redotted(rng.choice(fs), rng, 3)
            g = _redotted(rng.choice(gs), rng, 3)
            got = tl._compose_tangles(f, g)
            assert got == compose_tangles_oracle(f, g), (f, g)
            checked += 1
            loops += bool(got.closed_loops)
    # 35 arity triples, and closed loops in about a third of the stacks
    assert checked == 350 and loops > 100


def test_enumerate_counts():
    cases = [(1, 1), (2, 2), (3, 3), (2, 0), (4, 0), (0, 4), (5, 5), (4, 2)]
    for n, m in cases:
        l = (n + m) // 2
        assert len(tl.enumerate_reduced(n, m)) == 2**l * catalan(l)
    assert tl.enumerate_reduced(2, 1) == []


def test_enumerated_tangles_are_reduced_and_distinct():
    ts = tl.enumerate_reduced(3, 3)
    assert len(set(ts)) == len(ts)
    assert all(t.is_reduced() for t in ts)


def test_bending_commutes_with_reduce():
    t = tl.DottedTangle.make(2, 2, [(1, 4), (2, 3)], [2, 1])
    bent_then_reduced = tl.reduce_tangle(tl.bend_to_bottom(t)).term_dict()
    reduced_then_bent = {
        tl.bend_to_bottom(k): v
        for k, v in tl.reduce_tangle(t).term_dict().items()
    }
    assert bent_then_reduced == reduced_then_bent


# ---------------------------------------------------------------------------
# spinning


def test_spin_dotted_strand_matrix():
    m = tl.spin_evaluate(tl.reduce_tangle(strand(1)), GENERIC)
    assert m.entries == {(0, 0): A0, (1, 1): A1}


def test_spin_dotted_strand_vanishes_at_zero():
    m = tl.spin_evaluate(tl.reduce_tangle(strand(1)), INT)
    assert not m.entries


def test_spin_closed_values():
    for k, expect in ((0, BivariatePoly.from_int(2)), (1, E1)):
        t = tl.DottedTangle.make(0, 0, [], [], closed_loops=(k,))
        m = tl.spin_evaluate(tl.reduce_tangle(t), GENERIC)
        assert m.entries == {(0, 0): expect}


def test_spun_torus_through_saddles():
    # cup then cap without reduction: birth, split, merge, death
    cup = tl.reduce_tangle(tl.DottedTangle.make(0, 2, [(1, 2)]))
    cap = tl.reduce_tangle(tl.DottedTangle.make(2, 0, [(1, 2)]))
    m = tqft.compose(
        tl.spin_evaluate(cap, GENERIC),
        tl.spin_evaluate(cup, GENERIC),
    )
    assert m.entries == {(0, 0): BivariatePoly.from_int(2)}


def _random_morphism(rng, n, m):
    ts = tl.enumerate_reduced(n, m)
    picks = rng.sample(ts, k=min(2, len(ts)))
    out = {}
    for t in picks:
        out[t] = BivariatePoly.from_int(rng.randint(1, 3))
    return tl.TLMorphism.make(n, m, out)


@pytest.mark.parametrize("ring", [GENERIC, INT, EV], ids=repr)
def test_spin_functoriality_random(ring):
    rng = random.Random(23)
    shapes = [(1, 1, 1), (2, 2, 2), (0, 2, 2), (2, 2, 0), (1, 3, 1)]
    for n, mid, m in shapes:
        for _ in range(3):
            f = _random_morphism(rng, n, mid)
            g = _random_morphism(rng, mid, m)
            comp = tl.tl_compose(f, g)
            lhs = tl.spin_evaluate(comp, ring)
            rhs = tqft.compose(
                tl.spin_evaluate(g, ring),
                tl.spin_evaluate(f, ring),
            )
            assert lhs.entries == rhs.entries, (n, mid, m, ring)


def test_kernel_rank_experiments():
    assert tl.kernel_rank_experiment(1, 1, EV) == (2, 0)
    rank, kernel = tl.kernel_rank_experiment(2, 0, EV)
    assert rank >= 1 and rank + kernel == 2
    # frozen from a prior run; matches the binomial pattern of the
    # undotted theory
    assert tl.kernel_rank_experiment(2, 2, EV) == (6, 2)
    assert tl.kernel_rank_experiment(2, 2, alpha_eval(2, 5)) == (6, 2)


SPIN_RINGS = (GENERIC, INT, GF(3), RAT, alpha_eval(1, 3))


@pytest.mark.parametrize("ring", SPIN_RINGS, ids=repr)
def test_spin_places_the_step_by_step_entries(ring):
    # every reduced tangle with n + m <= 6
    shapes = [(n, s - n) for s in (0, 2, 4, 6) for n in range(s + 1)]
    for n, m in shapes:
        for t in tl.enumerate_reduced(n, m):
            assert tl.spin_tangle(t, ring) == spin_tangle_oracle(t, ring), t


@pytest.mark.parametrize("ring", [GENERIC, EV], ids=repr)
def test_spin_places_the_step_by_step_entries_at_4_4(ring):
    for t in tl.enumerate_reduced(4, 4):
        assert tl.spin_tangle(t, ring) == spin_tangle_oracle(t, ring), t


@pytest.mark.parametrize("ring", [GENERIC, alpha_eval(1, 3)], ids=repr)
def test_spin_places_the_step_by_step_entries_at_6_2_and_2_6(ring):
    # four strands on up to six slots of one side: many factors per map
    for n, m in ((6, 2), (2, 6)):
        for t in tl.enumerate_reduced(n, m):
            assert tl.spin_tangle(t, ring) == spin_tangle_oracle(t, ring), t


def test_clearing_the_table_memo_reaches_spinning(monkeypatch):
    # The counit and comultiplication negated give another Frobenius
    # structure: a connected genus-0 cobordism with l outputs is scaled
    # by (-1)^(1 - l), consistently under composition.  Spinning reads
    # the tables, so clearing their memo must reach it.
    t = tl.DottedTangle.make(3, 1, [(1, 2), (3, 4)], [1, 1])  # cap, through
    before = tl.spin_tangle(t, GENERIC)
    original = frobenius.cobordism

    def twisted(ring, dom_convs, cod_convs, dots):
        local = original(ring, dom_convs, cod_convs, dots)
        if len(cod_convs) == 1:
            return local
        return {
            bits: [(out, ring.neg(v)) for out, v in terms]
            for bits, terms in local.items()
        }

    monkeypatch.setattr(frobenius, "cobordism", twisted)
    tqft.local_table.cache_clear()
    try:
        after = tl.spin_tangle(t, GENERIC)
        assert after != before
        assert after == spin_tangle_oracle(t, GENERIC)
    finally:
        tqft.local_table.cache_clear()


def test_spin_composes_nothing_once_its_pieces_are_built(monkeypatch):
    tangles = tl.enumerate_reduced(3, 3)
    before = [tl.spin_tangle(t, EV) for t in tangles]

    def refuse(f, g):
        raise AssertionError("spin_tangle composed a map")

    monkeypatch.setattr(tqft, "compose", refuse)
    assert [tl.spin_tangle(t, EV) for t in tangles] == before


def test_spins_of_one_shape_share_their_spaces():
    a, b = tl.enumerate_reduced(2, 4)[:2]
    for ring in (GENERIC, EV):
        f, g = tl.spin_tangle(a, ring), tl.spin_tangle(b, ring)
        assert f.domain is g.domain and f.codomain is g.codomain
        assert f.domain is tqft.essential_space(2, ring)
        assert f.codomain is tqft.essential_space(4, ring)


@pytest.mark.parametrize("q", [(1, 3), (0, 1), (-2, 5), (1, 2), (7, -3)])
def test_kernel_rank_is_the_central_binomial(q):
    # the spun tangles span a space of dimension C(n + m, (n + m) / 2)
    ring = alpha_eval(*q)
    for n, m in product(range(5), repeat=2):
        if (n + m) % 2:
            continue
        rank = math.comb(n + m, (n + m) // 2)
        count = len(tl.enumerate_reduced(n, m))
        assert tl.kernel_rank_experiment(n, m, ring) == (rank, count - rank)


def test_kernel_rank_parity_error():
    with pytest.raises(ParityError):
        tl.kernel_rank_experiment(2, 1, EV)


def test_spinning_over_qh_is_the_qh_image_of_the_generic_spin():
    # Q[h] is Q[a0, a1] at a0 = 0, a1 = h, and both put V/V' on every
    # essential slot, so spinning commutes with the specialization
    count = 0
    for n, m in product(range(5), repeat=2):
        for t in tl.enumerate_reduced(n, m):
            generic = tl.spin_tangle(t, GENERIC).entries.items()
            image = {k: QH.specialize_poly(v) for k, v in generic}
            want = {k: v for k, v in image.items() if not QH.is_zero(v)}
            assert tl.spin_tangle(t, QH).entries == want, t
            count += 1
    assert count == 391


def test_spin_refuses_equal_parameters():
    from annkh.errors import VariantRingMismatchError

    with pytest.raises(VariantRingMismatchError, match="distinct"):
        tl.spin_evaluate(tl.reduce_tangle(strand()), alpha_eval(1, 1))
