"""The algebra through its local tables and changes of basis.

A table row is the image of one input word, a dict {output bits:
value} here; axioms are checked on maps placed from the tables."""

import random
from fractions import Fraction

import pytest

from annkh import tqft
from annkh.errors import InvalidBasisError
from annkh.frobenius import D_V, D_V_PRIME, E, ONE_X, V, V_PRIME, basis_change
from annkh.ring import A0, A1, E1, E2, GENERIC, GF, INT, QH, RAT, alpha_eval

EV = alpha_eval(0, 1)
ONE = GENERIC.one()


def rows(ring, dom, cod, dots=0):
    """The planar table of a cobordism as one dict per input word."""
    return [dict(row) for row in tqft.local_table(ring, dom, cod, True, dots)]


def trivial_space(ring, k):
    """k trivial circles: slots ONE_X over GENERIC, E over EV (annular)."""
    return tqft.make_space(ring, [(False, None)] * k, planar=ring is GENERIC)


def mat_mul(a, b):
    """2x2 matrices as row tuples."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def test_x_squared():
    # forced by the quotient relation: 1 with two dots is X^2 = (a0+a1) X - a0 a1
    assert rows(GENERIC, (ONE_X,), (ONE_X,), dots=2)[0] == {(0,): -E2, (1,): E1}


def test_unit_law():
    # a birth then a merge is the identity, on a trivial and an essential circle
    ess = tqft.make_space(GENERIC, [(True, 1)], planar=True)
    born = tqft.birth_map(ess, 1)
    merged = tqft.merge_map(born.codomain, ess, (0, 1), 0, ())
    assert tqft.compose(merged, born) == tqft.identity_map(ess)
    for ring in (GENERIC, EV):
        one = trivial_space(ring, 1)
        born = tqft.birth_map(one, 0)
        merged = tqft.merge_map(born.codomain, one, (0, 1), 0, ())
        assert tqft.compose(merged, born) == tqft.identity_map(one)
        # and the unit times each basis vector, read off the merge table
        conv = one.slots[0].convention
        table = rows(ring, (conv, conv), (conv,))
        one_coords = basis_change(ring, conv)[1][0]
        for j in (0, 1):
            got = {}
            for i, c in enumerate(one_coords):
                for out, v in table[2 * i + j].items():
                    got[out] = got.get(out, ring.zero()) + c * v
            assert {k: v for k, v in got.items() if v} == {(j,): ring.one()}


def test_idempotents():
    # e0 e0 = e0, e1 e1 = e1, e0 e1 = 0, read off the merge table in E
    assert rows(EV, (E, E), (E,)) == [{(0,): 1}, {}, {}, {(1,): 1}]
    # e0 + e1 = 1
    assert basis_change(EV, E)[1][0] == (1, 1)


def test_comult_of_one():
    # (X - a0)(x)1 + 1(x)(X - a1) on the {1, X} square
    assert rows(GENERIC, (ONE_X,), (ONE_X, ONE_X))[0] == {
        (1, 0): ONE, (0, 1): ONE, (0, 0): -E1,
    }


def test_comult_of_x():
    assert rows(GENERIC, (ONE_X,), (ONE_X, ONE_X))[1] == {(1, 1): ONE, (0, 0): -E2}


def test_comult_idempotent_formula():
    # localized comultiplication is diagonal on the idempotents
    q0, q1 = EV.alpha_images()
    assert rows(EV, (E,), (E, E)) == [{(0, 0): q1 - q0}, {(1, 1): q0 - q1}]


def test_counit():
    # the trace: 1 -> 0, X -> 1, and the trace of X - a0 is 1
    death = rows(GENERIC, (ONE_X,), ())
    assert death == [{}, {(): ONE}]
    v1 = basis_change(GENERIC, V)[0][1]
    assert v1 == (-A0, ONE)
    assert sum(c * row.get((), 0) for c, row in zip(v1, death)) == ONE


def test_x_action():
    assert rows(GENERIC, (ONE_X,), (ONE_X,), dots=1) == [
        {(1,): ONE}, {(0,): -E2, (1,): E1},
    ]
    # on v1 = X - a0 the action is multiplication by a1:
    # X(X - a0) = X^2 - a0 X = a1 X - a0 a1 = a1 (X - a0)
    assert rows(GENERIC, (V,), (V,), dots=1)[1] == {(1,): A1}


def test_convert_examples():
    # X = a0 * 1 + 1 * (X - a0), and 1 = e0 + e1
    assert basis_change(GENERIC, V)[1][1] == (A0, ONE)
    assert basis_change(EV, E)[1][0] == (1, 1)


def test_convert_round_trip():
    # the two matrices of each change of basis are mutually inverse
    rng = random.Random(11)
    for ring, bases in ((GENERIC, (ONE_X, V, V_PRIME)), (EV, (E, D_V, D_V_PRIME))):
        one, zero = ring.one(), ring.zero()
        for basis in bases:
            vectors, one_and_x = basis_change(ring, basis)
            ident = ((one, zero), (zero, one))
            assert mat_mul(vectors, one_and_x) == ident
            assert mat_mul(one_and_x, vectors) == ident
            for _ in range(15):
                c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in "01"]
                d = [sum(c[k] * vectors[k][i] for k in (0, 1)) for i in (0, 1)]
                back = [sum(d[i] * one_and_x[i][k] for i in (0, 1)) for k in (0, 1)]
                assert back == c


def test_localized_bases_are_rescaled_idempotents():
    # vbar1 = e0 and vbar1' = e1 as elements
    assert basis_change(EV, D_V)[0][1] == basis_change(EV, E)[0][0]
    assert basis_change(EV, D_V_PRIME)[0][1] == basis_change(EV, E)[0][1]


def test_frobenius_axiom():
    # split . merge = (merge (x) id)(id (x) split) = (id (x) merge)(split (x) id)
    for ring in (GENERIC, EV):
        s1, s2, s3 = (trivial_space(ring, k) for k in (1, 2, 3))
        target = tqft.compose(
            tqft.split_map(s1, s2, 0, (0, 1), ()),
            tqft.merge_map(s2, s1, (0, 1), 0, ()),
        )
        left = tqft.compose(
            tqft.merge_map(s3, s2, (0, 1), 0, [(2, 1)]),
            tqft.split_map(s2, s3, 1, (1, 2), [(0, 0)]),
        )
        right = tqft.compose(
            tqft.merge_map(s3, s2, (1, 2), 1, [(0, 0)]),
            tqft.split_map(s2, s3, 0, (0, 1), [(1, 2)]),
        )
        assert target.entries
        assert left == target and right == target


def test_counit_axiom():
    # (counit (x) id) . split = id = (id (x) counit) . split
    for ring in (GENERIC, EV):
        s1, s2 = trivial_space(ring, 1), trivial_space(ring, 2)
        split = tqft.split_map(s1, s2, 0, (0, 1), ())
        for slot in (0, 1):
            death = tqft.death_map(s2, slot)
            assert tqft.compose(death, split) == tqft.identity_map(s1)


def test_zero_parameters_recover_classical_structure():
    assert rows(INT, (ONE_X,), (ONE_X,), dots=2) == [{}, {}]
    assert rows(INT, (ONE_X,), (ONE_X, ONE_X)) == [{(1, 0): 1, (0, 1): 1}, {(1, 1): 1}]


def test_basis_validation():
    with pytest.raises(InvalidBasisError, match="no basis 'E' over GENERIC_ALPHA"):
        tqft.local_table(GENERIC, (E,), (E,), True)
    with pytest.raises(InvalidBasisError):
        basis_change(alpha_eval(1, 1), E)
    # the output bases are checked before the input ones
    with pytest.raises(InvalidBasisError, match="no basis 'D_V' over INT"):
        tqft.local_table(INT, (E,), (D_V,), True)


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
    one, zero = ring.one(), ring.zero()
    ident = ((one, zero), (zero, one))
    for basis in (ONE_X, V, V_PRIME):
        vectors, one_and_x = basis_change(ring, basis)
        assert mat_mul(vectors, one_and_x) == ident
    for basis in (E, D_V, D_V_PRIME):
        if localized:
            basis_change(ring, basis)
        else:
            with pytest.raises(InvalidBasisError, match=f"no basis '{basis}'"):
                basis_change(ring, basis)
    with pytest.raises(InvalidBasisError):
        basis_change(ring, "W")
