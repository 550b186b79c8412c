import math
import operator
import random
import re
from fractions import Fraction

import pytest

from annkh import complexes, homology, linalg
from annkh import frobenius as fb
from annkh.corpus import braid_closure
from annkh.errors import UnsupportedRingError
from annkh.ring import (
    A0,
    A1,
    DISCRIMINANT,
    GENERIC,
    GF,
    INT,
    LEE,
    QH,
    RAT,
    AlphaEval,
    BivariatePoly,
    Field,
    GenericAlpha,
    IntRing,
    PRIME_TEST_BOUND,
    PrimeField,
    RatPolyH,
    RatRing,
    _is_prime,
    alpha_eval,
)
from annkh.tqft import local_table

from conftest import hpoly


def rand_poly(rng, max_deg=3, max_coeff=6, rational=True):
    """A random element of Q[a0, a1], about one coefficient in four a
    Fraction; of Z[a0, a1] if not ``rational``."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        c = rng.randint(-max_coeff, max_coeff)
        if rational and rng.randrange(4) == 0:
            c = Fraction(c, rng.randint(2, 4))
        terms[key] = c
    return BivariatePoly(terms)


def rand_hpoly(rng, max_deg=3, max_coeff=3):
    return hpoly(*(Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 3))
                   for _ in range(rng.randint(0, max_deg + 1))))


def test_product_difference_of_squares():
    assert (A0 + A1) * (A0 - A1) == A0 * A0 - A1 * A1


def test_zero_annihilates():
    rng = random.Random(1)
    zero = BivariatePoly()
    for _ in range(20):
        assert zero * rand_poly(rng) == zero


def test_discriminant_expansion():
    expected = BivariatePoly({(2, 0): 1, (1, 1): -2, (0, 2): 1})
    assert DISCRIMINANT == expected


def test_qdeg_values():
    assert (A0 + A1).qdeg() == 2
    assert (A0 * A1).qdeg() == 4
    assert (BivariatePoly.from_int(1) + A0).qdeg() is None
    assert BivariatePoly().qdeg() is None


def test_qdeg_additive_on_homogeneous():
    rng = random.Random(2)
    for _ in range(40):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        p = BivariatePoly({(rng.randint(0, d1), d1 - rng.randint(0, d1)): 1})
        p = BivariatePoly({(i, d1 - i): rng.randint(1, 3) for i in range(d1 + 1)})
        q = BivariatePoly({(i, d2 - i): rng.randint(1, 3) for i in range(d2 + 1)})
        assert (p * q).qdeg() == p.qdeg() + q.qdeg()


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize(
    "ring, poly, expected",
    [
        (INT, A0 + A1, 0),
        (QH, A0 + A1, A1),
        (QH, A0 * A1 + 3 * A1 * A1 - A0 + Fraction(1, 2), hpoly(Fraction(1, 2), 0, 3)),
        (alpha_eval(0, 1), DISCRIMINANT, Fraction(1)),
    ],
)
def test_specialize_examples(ring, poly, expected):
    assert ring.specialize_poly(poly) == expected


def test_specialize_is_ring_hom():
    rng = random.Random(4)
    rings = [INT, RAT, GF(5), QH, alpha_eval(2, Fraction(1, 3))]
    for ring in rings:
        # Q[a0, a1] does not map to Z; it maps to GF(5) where 2, 3, 4 invert
        rational = ring is not INT
        for _ in range(20):
            a, b = rand_poly(rng, rational=rational), rand_poly(rng, rational=rational)
            sa, sb = ring.specialize_poly(a), ring.specialize_poly(b)
            assert ring.specialize_poly(a * b) == ring.mul(sa, sb)
            assert ring.specialize_poly(a + b) == ring.add(sa, sb)


def test_specialize_fractions():
    half = BivariatePoly({(0, 0): Fraction(1, 2)})
    assert GF(5).from_int(Fraction(1, 2)) == 3 == GF(5).specialize_poly(half)
    assert GF(7).specialize_poly(Fraction(-2, 3) * A1 + Fraction(5, 4)) == 3
    with pytest.raises(ValueError):
        GF(5).from_int(Fraction(2, 5))
    assert INT.from_int(Fraction(6, 3)) == 2 and INT.specialize_poly(half * 4 + A0) == 2
    with pytest.raises(ValueError, match="not in Z"):
        INT.from_int(Fraction(1, 2))
    with pytest.raises(ValueError, match="not in Z"):
        INT.specialize_poly(half * A0)


def test_poly_refuses_inexact_numbers():
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(A0, 0.5)
        with pytest.raises(TypeError):
            op(0.5, A0)
    assert A0 != 0.5 and not A0 == 0.5


def test_euclidean_divmod_examples():
    assert INT.divmod(7, 2) == (3, 1)
    hq, hr = QH.divmod(hpoly(1, 0, 1), hpoly(0, 1))
    assert hq == hpoly(0, 1) and hr == hpoly(1)
    hq, hr = QH.divmod(hpoly(1, 2, 0, 4), hpoly(-1, 2))
    assert hq == hpoly(Fraction(3, 2), 1, 2) and hr == hpoly(Fraction(5, 2))
    fq, fr = RAT.divmod(Fraction(5), Fraction(3))
    assert fq == Fraction(5, 3) and fr == 0


def test_euclidean_size_contract():
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randint(-40, 40), rng.choice([-7, -3, 2, 5, 9])
        q, r = INT.divmod(a, b)
        assert a == q * b + r
        assert abs(r) < abs(b)
    for _ in range(30):
        a = hpoly(*(rng.randint(-3, 3) for _ in range(rng.randint(0, 5))))
        b = hpoly(*(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
        if b.is_zero():
            continue
        q, r = QH.divmod(a, b)
        assert q * b + r == a
        assert QH.size(r) < QH.size(b)
    assert [QH.size(hpoly(*cs)) for cs in ((), (3,), (0, 1), (1, 0, Fraction(1, 2)))] == [
        0, 1, 2, 3
    ]
    p = 7
    for _ in range(30):
        a, b = rng.randrange(p), rng.randrange(1, p)
        q, r = GF(p).divmod(a, b)
        assert r == 0
        assert (q * b) % p == a % p


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        INT.divmod(1, 0)


def test_generic_is_not_euclidean():
    with pytest.raises(UnsupportedRingError):
        GENERIC.divmod(A0, BivariatePoly.from_int(1))


def test_is_unit():
    assert INT.is_unit(1) and INT.is_unit(-1)
    assert not any(INT.is_unit(v) for v in (0, 2, -3))
    for ring in (RAT, alpha_eval(0, 1)):
        assert ring.is_unit(Fraction(-2, 3)) and not ring.is_unit(Fraction(0))
    assert GF(5).is_unit(3) and not GF(5).is_unit(0)
    assert QH.is_unit(hpoly(Fraction(1, 2)))
    assert not QH.is_unit(hpoly()) and not QH.is_unit(hpoly(1, 1))
    assert not QH.is_unit(hpoly(0, 1))
    assert not GENERIC.is_unit(BivariatePoly.from_int(1))


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        GF(4)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_miller_rabin_agrees_with_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if trial_division_is_prime(n)
    ]


@pytest.mark.parametrize("n", [561, 41041, 3215031751])
def test_prime_field_refuses_pseudoprimes(n):
    # a Carmichael number, and strong pseudoprimes to the bases 2, 3, 5, 7
    with pytest.raises(ValueError, match="not prime"):
        GF(n)


def test_prime_field_refuses_moduli_at_the_prime_test_bound():
    assert GF(10**24 + 7).p == 10**24 + 7  # the least prime above 10^24
    for p in (PRIME_TEST_BOUND, PRIME_TEST_BOUND + 2):
        with pytest.raises(ValueError, match=str(PRIME_TEST_BOUND)):
            GF(p)


def test_alpha_eval_distinct_flag():
    assert alpha_eval(0, 1).distinct
    assert not alpha_eval(2, 2).distinct


def test_poly_ascii_form():
    p = 3 * (A0 * A0) * A1 - 2 * A1 + BivariatePoly.from_int(1)
    # sorted by exponent pairs (0,0) < (0,1) < (2,1)
    assert str(p) == "1 - 2*a1 + 3*a0^2*a1"
    assert str(BivariatePoly()) == "0"


def test_fraction_coefficients_are_kept():
    half = BivariatePoly({(0, 0): Fraction(1, 2)})
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert str(BivariatePoly({(1, 0): Fraction(3, 2)})) == "3/2*a0"
    assert str(Fraction(-1, 3) * A1 + A0 - 1) == "-1 - 1/3*a1 + a0"
    assert half * 2 == 1 and half + half == 1 and half - Fraction(1, 2) == 0
    assert 2 * (A0 * half) == A0 and (A1 + half) * half == Fraction(1, 2) * A1 + Fraction(1, 4)


def test_equal_values_hash_equal():
    """A constant polynomial equals its number, so it hashes as it does."""
    for n in (0, 1, 3, -7, 2**70):
        p = BivariatePoly.from_int(n)
        assert p == n and hash(p) == hash(n)
        assert len({p, n}) == 1
        for c in (n, Fraction(n), Fraction(n, 3)):
            h = QH.from_int(c)
            assert h == c and hash(h) == hash(c)
            assert len({h, c}) == 1
    assert len({BivariatePoly(), 0}) == 1 and len({QH.zero(), 0, Fraction(0)}) == 1
    # equal non-constant polynomials hash equal however they were built
    rng = random.Random(5)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        assert hash((a + b) - b) == hash(a) and hash(a * b) == hash(b * a)
        h = rand_hpoly(rng)
        assert hash(h + A1 - A1) == hash(h)
    for p in (A0, A1, A0 * A1 + 3):
        assert p != 3 and len({p, p * 1}) == 1
    assert A1 != 0 and len({A1, hpoly(0, Fraction(1))}) == 1


# Q[h] values and the strings they printed as a class of their own
QH_STRINGS = [
    ((), "0"),
    ((1,), "1"),
    ((-1,), "-1"),
    ((5,), "5"),
    ((-7,), "-7"),
    ((Fraction(1, 2),), "1/2"),
    ((Fraction(-3, 4),), "-3/4"),
    ((0, 1), "h"),
    ((0, -1), "-h"),
    ((0, -1, 1), "h^2 - h"),
    ((1, 0, 2), "2*h^2 + 1"),
    ((Fraction(-3, 4), 0, 0, Fraction(1, 2)), "1/2*h^3 - 3/4"),
    ((Fraction(2, 3), -1, 0, Fraction(-5, 2)), "-5/2*h^3 - h + 2/3"),
]


@pytest.mark.parametrize("coeffs, text", QH_STRINGS)
def test_qh_strings(coeffs, text):
    assert QH.to_str(hpoly(*coeffs)) == text


def test_qh_string_and_monic():
    p = hpoly(1, 0, 2)
    assert QH.to_str(p) == "2*h^2 + 1"
    assert QH.normalize_unit(p) == (Fraction(1, 2), hpoly(Fraction(1, 2), 0, 1))
    assert QH.normalize_unit(hpoly(0, Fraction(-2, 3))) == (Fraction(-3, 2), hpoly(0, 1))
    assert QH.normalize_unit(QH.zero()) == (1, QH.zero())
    assert QH.to_str(QH.alpha_images()[1]) == "h"


def test_integral_qh_stays_on_ints():
    """Whole quotients come out as ints, so Q[h] tables and row updates
    over integral values do no Fraction arithmetic."""
    table = local_table(QH, (fb.V, fb.ONE_X), (fb.V,), False)
    coeffs = [c for row in table for _, v in row for c in v.terms.values()]
    assert coeffs and all(type(c) is int for c in coeffs)
    q, r = QH.divmod(QH.one(), QH.from_int(-1))
    assert q == -1 and not r
    assert all(type(c) is int for c in q.terms.values())
    assert QH.normalize_unit(hpoly(1, -2))[0].terms == {(0, 0): Fraction(-1, 2)}


def test_integral_complexes_stay_on_ints(diagrams):
    """Over Q and the Lee ring every local table is integral, so every
    block value of the annular and planar complexes is an int, and unit
    cancellation over LEE writes only ints: it does no Fraction
    arithmetic.  The annular tables over alpha:1,3 still hold whole
    Fractions (products with 1/2), and are left as they are."""
    for ring in (RAT, LEE):
        for planar in (False, True):
            for name, d in diagrams.items():
                c = complexes.build_complex(d, ring, planar=planar)
                values = [v for bl in c.blocks.values() for *_, items in bl for _, v in items]
                assert all(type(v) is int for v in values), (ring, planar, name)

    made = []  # every value the row updates and pivot inverses make

    class Recording(AlphaEval):
        def sub(self, a, b):
            made.append(a - b)
            return made[-1]

        def mul(self, a, b):
            made.append(a * b)
            return made[-1]

        def div(self, a, b):
            made.append(super().div(a, b))
            return made[-1]

    c = homology.lee_complex(braid_closure([1, -2] * 3, 3))
    for bl in c.blocks.values():
        rows, cols = linalg.row_form(
            {(rof + r, cof + col): v for rof, cof, items in bl for (r, col), v in items}
        )
        assert linalg.cancel_units(Recording(0, 1), rows, cols)
        assert not rows  # over a field every entry is a unit
    assert made and all(type(v) is int for v in made)


RATIONAL_RINGS = [RAT, LEE, alpha_eval(1, 3), alpha_eval(2, Fraction(1, 3))]
RATIONAL_VALUES = [
    0, 1, -1, 2, 3, -6, Fraction(1, 2), Fraction(-3, 2), Fraction(2), Fraction(-6, 3),
]


def exact_rational(v):
    """Whether v is an int, or a Fraction that is not whole."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


@pytest.mark.parametrize("ring", RATIONAL_RINGS, ids=repr)
def test_rational_values_are_ints_when_whole(ring):
    """Division over Q and the alpha rings is exact and never gives a
    float: ``div``, ``divmod``, ``normalize_unit`` and ``from_int`` give
    an int exactly when the value is whole, a Fraction otherwise."""
    assert ring.divmod(1, 2) == (Fraction(1, 2), 0)
    assert ring.divmod(3, 2)[0] == Fraction(3, 2)
    assert type(ring.zero()) is int and type(ring.one()) is int
    assert all(map(exact_rational, ring.alpha_images()))
    for a in RATIONAL_VALUES:
        assert ring.from_int(a) == a and exact_rational(ring.from_int(a))
        if a:
            u, one = ring.normalize_unit(a)
            assert u * a == 1 and exact_rational(u) and type(one) is int
        for b in filter(None, RATIONAL_VALUES):
            want = Fraction(a) / Fraction(b)
            q, r = ring.divmod(a, b)
            assert q == want and exact_rational(q), (a, b)
            assert r == 0 and type(r) is int
            assert ring.div(a, b) == want and exact_rational(ring.div(a, b))


# each ring, a second construction of it, and rings it must differ from
IDENTITY_CASES = [
    (INT, IntRing, (RAT, GF(2))),
    (RAT, RatRing, (alpha_eval(0, 0), INT)),
    (GF(2), lambda: GF(2), (GF(3), INT)),
    (GF(5), lambda: PrimeField(5), (GF(2), RAT)),
    (QH, RatPolyH, (RAT, GENERIC)),
    (GENERIC, GenericAlpha, (QH,)),
    (alpha_eval(1, 3), lambda: alpha_eval(Fraction(1), Fraction(3)),
     (alpha_eval(3, 1), RAT)),
    (alpha_eval(2, 2), lambda: AlphaEval(2, 2), (alpha_eval(2, 3), alpha_eval())),
]


@pytest.mark.parametrize(
    "ring, build, others", IDENTITY_CASES, ids=[repr(c[0]) for c in IDENTITY_CASES]
)
def test_a_ring_is_its_type_and_parameters(ring, build, others):
    twin = build()
    assert twin is not ring
    assert twin == ring and hash(twin) == hash(ring) and len({ring, twin}) == 1
    for other in others:
        assert ring != other and len({ring, other}) == 2
    # messages name the ring as it prints
    name = re.escape("Q[h]" if ring is QH else repr(ring))
    if not ring.is_euclidean:
        with pytest.raises(UnsupportedRingError, match=f"division over {name}$"):
            ring.divmod(ring.one(), ring.one())
        with pytest.raises(UnsupportedRingError, match=f"size over {name}$"):
            ring.size(ring.one())
        return
    with pytest.raises(ZeroDivisionError, match=f"division by zero in {name}$"):
        ring.divmod(ring.one(), ring.zero())
    if not isinstance(ring, Field):
        return
    # a field's Euclidean division, size and unit normalization are its
    # exact quotient's
    rng = random.Random(repr(ring))
    values = [ring.zero(), ring.one()] + [rand_value(rng, ring) for _ in range(30)]
    for a in values:
        zero = ring.is_zero(a)
        assert ring.size(a) == (0 if zero else 1)
        assert ring.is_unit(a) is not zero
        with pytest.raises(ZeroDivisionError, match=f"division by zero in {name}$"):
            ring.divmod(a, ring.zero())
        if zero:
            assert ring.normalize_unit(a) == (ring.one(), a)
            continue
        assert ring.normalize_unit(a) == (ring.div(ring.one(), a), ring.one())
        assert ring.mul(a, ring.normalize_unit(a)[0]) == ring.one()
        for b in values:
            q, r = ring.divmod(b, a)
            assert q == ring.div(b, a) and ring.is_zero(r)
            assert ring.mul(q, a) == b


CONTRACT_RINGS = {
    "int": INT,
    "rat": RAT,
    "gf2": GF(2),
    "gf5": GF(5),
    "qh": QH,
    "alpha": alpha_eval(0, 1),
    "alpha_2_1/3": alpha_eval(2, Fraction(1, 3)),
    "generic": GENERIC,
}


def rand_value(rng, ring):
    """A random element of the ring, zero about one time in six."""
    if rng.randrange(6) == 0:
        return ring.zero()
    if ring is GENERIC:
        return rand_poly(rng)
    if ring is QH:
        return hpoly(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                       for _ in range(rng.randint(0, 4))))
    if ring is INT or isinstance(ring, PrimeField):
        return ring.from_int(rng.randint(-30, 30))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


@pytest.mark.parametrize("name", sorted(CONTRACT_RINGS))
def test_ring_contract(name):
    ring = CONTRACT_RINGS[name]
    rng = random.Random(sorted(CONTRACT_RINGS).index(name))
    assert not ring.is_zero(ring.one())
    assert ring.is_zero(ring.zero())
    results = [ring.zero(), ring.one()]
    # the denominators 2, 3, 4 of rand_poly have no image in Z or GF(2)
    rational = ring not in (INT, GF(2))
    for _ in range(200):
        a, b = rand_value(rng, ring), rand_value(rng, ring)
        assert ring.sub(a, b) == ring.add(a, ring.neg(b))
        assert ring.is_zero(ring.sub(a, a))
        for x in (a, b, ring.sub(a, b)):
            assert ring.is_zero(x) == (x == ring.zero())
        results += [
            a, b, ring.add(a, b), ring.sub(a, b), ring.neg(a), ring.mul(a, b),
            ring.specialize_poly(rand_poly(rng, rational=rational)),
        ]
    if isinstance(ring, PrimeField):
        assert all(v in range(ring.p) for v in results)
