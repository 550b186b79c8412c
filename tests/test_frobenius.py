import random
from fractions import Fraction
from itertools import product

import pytest

from annkh.errors import InvalidBasisError, RingMismatchError
from annkh.frobenius import (
    D_V,
    D_V_PRIME,
    E,
    ONE_X,
    V,
    V_PRIME,
    Frobenius,
)
from annkh.ring import A0, A1, E1, E2, GENERIC, GF, INT, QH, RAT, alpha_eval

FR = Frobenius(GENERIC)
EV = alpha_eval(0, 1)
FREV = Frobenius(EV)


def elt(c0, c1, basis=ONE_X, fr=FR):
    ring = fr.ring
    return fr.element(basis, ring.from_int(c0) if isinstance(c0, int) else c0,
                      ring.from_int(c1) if isinstance(c1, int) else c1)


def rand_elt(rng, fr=FR, basis=ONE_X):
    from test_ring import rand_poly

    return fr.element(basis, rand_poly(rng), rand_poly(rng))


def test_x_squared():
    x = elt(0, 1)
    prod = FR.mult(x, x)
    # forced by the quotient relation: X^2 = (a0+a1) X - a0 a1
    assert prod.c0 == -E2 and prod.c1 == E1


def test_unit_law_random():
    rng = random.Random(10)
    one = FR.unit()
    for _ in range(20):
        a = rand_elt(rng)
        assert FR.mult(one, a).coords == FR.to_one_x(a)


def test_idempotents():
    e0 = FREV.element(E, Fraction(1), Fraction(0))
    e1 = FREV.element(E, Fraction(0), Fraction(1))
    assert FREV.convert(FREV.mult(e0, e0), E).coords == (1, 0)
    assert FREV.convert(FREV.mult(e1, e1), E).coords == (0, 1)
    assert FREV.convert(FREV.mult(e0, e1), E).coords == (0, 0)
    # e0 + e1 = 1
    assert FREV.convert(FREV.unit(), E).coords == (1, 1)


def test_comult_of_one():
    one = GENERIC.one()
    got = FR.comult_tensor(FR.unit())
    # (X - a0)(x)1 + 1(x)(X - a1) on the {1, X} square
    assert got == {(1, 0): one, (0, 1): one, (0, 0): -E1}


def test_comult_of_x():
    x = elt(0, 1)
    assert FR.comult_tensor(x) == {(1, 1): GENERIC.one(), (0, 0): -E2}


def test_comult_idempotent_formula():
    # localized comultiplication is diagonal on the idempotents
    e0 = FREV.element(E, Fraction(1), Fraction(0))
    tens = FREV.comult_tensor(e0)
    out = {}
    for (i, j), v in tens.items():
        one = Fraction(1)
        zero = Fraction(0)
        f1 = FREV.from_one_x(E, one if i == 0 else zero, one if i == 1 else zero)
        f2 = FREV.from_one_x(E, one if j == 0 else zero, one if j == 1 else zero)
        for o1, c1 in enumerate(f1.coords):
            for o2, c2 in enumerate(f2.coords):
                key = (o1, o2)
                out[key] = out.get(key, Fraction(0)) + v * c1 * c2
    out = {k: v for k, v in out.items() if v}
    q0, q1 = EV.alpha_images()
    assert out == {(0, 0): q1 - q0}


def test_counit():
    assert FR.counit(FR.unit()).is_zero()
    assert FR.counit(elt(0, 1)) == GENERIC.one()
    # linearity: the trace of X - a0 is 1
    v1 = FR.element(V, GENERIC.zero(), GENERIC.one())
    assert FR.counit(v1) == GENERIC.one()


def test_x_action():
    assert FR.x_action(FR.unit()).coords == (GENERIC.zero(), GENERIC.one())
    x2 = FR.x_action(elt(0, 1))
    assert (x2.c0, x2.c1) == (-E2, E1)
    # on v1 = X - a0 the action is multiplication by a1:
    # X(X - a0) = X^2 - a0 X = a1 X - a0 a1 = a1 (X - a0)
    v1 = FR.element(V, GENERIC.zero(), GENERIC.one())
    got = FR.x_action(v1)
    assert got.basis == V and got.coords == (GENERIC.zero(), A1)


def test_convert_examples():
    x = elt(0, 1)
    as_v = FR.convert(x, V)
    assert as_v.coords == (A0, GENERIC.one())
    assert FREV.convert(FREV.unit(), E).coords == (1, 1)


def test_convert_round_trip():
    rng = random.Random(11)
    for basis in (V, V_PRIME):
        for _ in range(15):
            a = rand_elt(rng, FR, basis)
            back = FR.convert(FR.convert(a, ONE_X), basis)
            assert back.coords == a.coords
    rngf = random.Random(12)
    for basis in (E, D_V, D_V_PRIME):
        for _ in range(15):
            a = FREV.element(
                basis,
                Fraction(rngf.randint(-5, 5), rngf.randint(1, 4)),
                Fraction(rngf.randint(-5, 5), rngf.randint(1, 4)),
            )
            back = FREV.convert(FREV.convert(a, ONE_X), basis)
            assert back.coords == a.coords


def test_localized_bases_are_rescaled_idempotents():
    # vbar1 = e0 and vbar1' = e1 as elements
    vb1 = FREV.element(D_V, Fraction(0), Fraction(1))
    e0 = FREV.element(E, Fraction(1), Fraction(0))
    assert FREV.to_one_x(vb1) == FREV.to_one_x(e0)
    vb1p = FREV.element(D_V_PRIME, Fraction(0), Fraction(1))
    e1 = FREV.element(E, Fraction(0), Fraction(1))
    assert FREV.to_one_x(vb1p) == FREV.to_one_x(e1)


def _structure_matrices(fr):
    """mult as 4x2 columns and comult as entries for axiom checks."""
    ring = fr.ring
    basis = [fr.element(ONE_X, ring.one(), ring.zero()),
             fr.element(ONE_X, ring.zero(), ring.one())]
    mult = {}
    for i, j in product(range(2), repeat=2):
        mult[(i, j)] = fr.mult(basis[i], basis[j]).coords
    com = {i: fr.comult_tensor(basis[i]) for i in range(2)}
    return basis, mult, com


def test_frobenius_axiom():
    ring = FR.ring
    basis, mult, com = _structure_matrices(FR)

    def comult_mult(i, j):
        prod = mult[(i, j)]
        out = {}
        for k, c in enumerate(prod):
            if ring.is_zero(c):
                continue
            for (p, q), v in com[k].items():
                key = (p, q)
                out[key] = ring.add(out.get(key, ring.zero()), ring.mul(c, v))
        return {k: v for k, v in out.items() if not ring.is_zero(v)}

    def mult_comult_left(i, j):
        # (mult (x) id) (id (x) comult) applied to b_i (x) b_j
        out = {}
        for (p, q), v in com[j].items():
            prod = mult[(i, p)]
            for k, c in enumerate(prod):
                w = ring.mul(v, c)
                if ring.is_zero(w):
                    continue
                key = (k, q)
                out[key] = ring.add(out.get(key, ring.zero()), w)
        return {k: v for k, v in out.items() if not ring.is_zero(v)}

    def mult_comult_right(i, j):
        # (id (x) mult) (comult (x) id)
        out = {}
        for (p, q), v in com[i].items():
            prod = mult[(q, j)]
            for k, c in enumerate(prod):
                w = ring.mul(v, c)
                if ring.is_zero(w):
                    continue
                key = (p, k)
                out[key] = ring.add(out.get(key, ring.zero()), w)
        return {k: v for k, v in out.items() if not ring.is_zero(v)}

    for i, j in product(range(2), repeat=2):
        target = comult_mult(i, j)
        assert mult_comult_left(i, j) == target
        assert mult_comult_right(i, j) == target


def test_counit_axiom():
    ring = FR.ring
    basis, _, com = _structure_matrices(FR)
    for i in range(2):
        left = [ring.zero(), ring.zero()]
        right = [ring.zero(), ring.zero()]
        for (p, q), v in com[i].items():
            eps_p = FR.counit(basis[p])
            eps_q = FR.counit(basis[q])
            left[q] = ring.add(left[q], ring.mul(eps_p, v))
            right[p] = ring.add(right[p], ring.mul(eps_q, v))
        expect = [ring.one() if k == i else ring.zero() for k in range(2)]
        assert left == expect and right == expect


def test_zero_parameters_recover_classical_structure():
    fr0 = Frobenius(INT)
    one = fr0.unit()
    x = fr0.element(ONE_X, 0, 1)
    assert fr0.mult(x, x).coords == (0, 0)
    assert fr0.comult_tensor(one) == {(1, 0): 1, (0, 1): 1}
    assert fr0.comult_tensor(x) == {(1, 1): 1}


def test_basis_validation():
    with pytest.raises(InvalidBasisError):
        FR.element(E, GENERIC.one(), GENERIC.zero())
    with pytest.raises(InvalidBasisError):
        Frobenius(alpha_eval(1, 1)).element(E, Fraction(1), Fraction(0))


@pytest.mark.parametrize(
    "ring, localized",
    [
        (INT, False),
        (GF(2), False),
        (RAT, False),
        (QH, False),
        (GENERIC, False),
        (alpha_eval(1, 1), False),
        (alpha_eval(0, 1), True),
        (alpha_eval(1, 3), True),
    ],
    ids=repr,
)
def test_a_ring_admits_the_bases_its_change_of_basis_inverts(ring, localized):
    # V, V' and ONE_X change basis with determinant 1; E, D_V and D_V'
    # need i1 - i0 invertible, which only distinct evaluations give
    fr = Frobenius(ring)
    one, zero = ring.one(), ring.zero()
    for basis in (ONE_X, V, V_PRIME):
        assert fr.convert(fr.element(basis, one, zero), basis).coords == (one, zero)
    for basis in (E, D_V, D_V_PRIME):
        if localized:
            fr.element(basis, one, zero)
        else:
            with pytest.raises(InvalidBasisError, match=f"no basis '{basis}'"):
                fr.element(basis, one, zero)
    with pytest.raises(InvalidBasisError):
        fr.element("W", one, zero)


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        FR.mult(FR.unit(), Frobenius(INT).unit())
