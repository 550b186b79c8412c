import math
import random
from fractions import Fraction

import pytest

from annkh.errors import UnsupportedRingError
from annkh.ring import (
    A0,
    A1,
    DISCRIMINANT,
    GENERIC,
    GF,
    INT,
    QH,
    RAT,
    BivariatePoly,
    HPoly,
    PRIME_TEST_BOUND,
    PrimeField,
    _is_prime,
    alpha_eval,
)


def rand_poly(rng, max_deg=3, max_coeff=6):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[key] = rng.randint(-max_coeff, max_coeff)
    return BivariatePoly(terms)


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
    "ring, expected",
    [
        (INT, 0),
        (QH, HPoly((0, 1))),
        (alpha_eval(0, 1), Fraction(1)),
    ],
)
def test_specialize_examples(ring, expected):
    if ring is INT:
        assert ring.specialize_poly(A0 + A1) == expected
    elif ring is QH:
        assert ring.specialize_poly(A0 + A1) == expected
    else:
        assert ring.specialize_poly(DISCRIMINANT) == expected


def test_specialize_is_ring_hom():
    rng = random.Random(4)
    rings = [INT, RAT, GF(5), QH, alpha_eval(2, Fraction(1, 3))]
    for ring in rings:
        for _ in range(20):
            a, b = rand_poly(rng), rand_poly(rng)
            sa, sb = ring.specialize_poly(a), ring.specialize_poly(b)
            assert ring.specialize_poly(a * b) == ring.mul(sa, sb)
            assert ring.specialize_poly(a + b) == ring.add(sa, sb)


def test_euclidean_divmod_examples():
    assert INT.divmod(7, 2) == (3, 1)
    hq, hr = QH.divmod(HPoly((1, 0, 1)), HPoly((0, 1)))
    assert hq == HPoly((0, 1)) and hr == HPoly(1)
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
        a = HPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
        b = HPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = QH.divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()
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
    assert QH.is_unit(HPoly(Fraction(1, 2)))
    assert not QH.is_unit(HPoly(())) and not QH.is_unit(HPoly((1, 1)))
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


def test_equal_values_hash_equal():
    """A constant polynomial equals its number, so it hashes as it does."""
    for n in (0, 1, 3, -7, 2**70):
        p = BivariatePoly.from_int(n)
        assert p == n and hash(p) == hash(n)
        assert len({p, n}) == 1
        for c in (n, Fraction(n), Fraction(n, 3)):
            h = HPoly(c)
            assert h == c and hash(h) == hash(c)
            assert len({h, c}) == 1
    assert len({BivariatePoly(), 0}) == 1 and len({HPoly(()), 0, Fraction(0)}) == 1
    # equal non-constant polynomials hash equal however they were built
    rng = random.Random(5)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        assert hash((a + b) - b) == hash(a) and hash(a * b) == hash(b * a)
        h = HPoly([rng.randint(-3, 3) for _ in range(4)])
        assert hash(h + HPoly.gen() - HPoly.gen()) == hash(h)
    for p in (A0, A1, A0 * A1 + 3):
        assert p != 3 and len({p, p * 1}) == 1
    assert HPoly.gen() != 0 and len({HPoly.gen(), HPoly((0, 1))}) == 1


def test_hpoly_string_and_monic():
    p = HPoly((1, 0, 2))
    assert str(p) == "2*h^2 + 1"
    assert p.monic() == HPoly((Fraction(1, 2), 0, 1))
    assert QH.to_str(QH.alpha_images()[1]) == "h"


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
        return HPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(rng.randint(0, 4))])
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
    for _ in range(200):
        a, b = rand_value(rng, ring), rand_value(rng, ring)
        assert ring.sub(a, b) == ring.add(a, ring.neg(b))
        assert ring.is_zero(ring.sub(a, a))
        for x in (a, b, ring.sub(a, b)):
            assert ring.is_zero(x) == (x == ring.zero())
        results += [
            a, b, ring.add(a, b), ring.sub(a, b), ring.neg(a), ring.mul(a, b),
            ring.specialize_poly(rand_poly(rng)),
        ]
    if isinstance(ring, PrimeField):
        assert all(v in range(ring.p) for v in results)
