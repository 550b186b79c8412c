"""The matrix product: the GENERIC term-level kernel against the base loop.

A map is its entry dict ``(row, col) -> value``, and ``tqft.compose``
and the d^2 checks hand two such dicts to ``ring.matmul``.
``CoefficientRing.matmul`` is the loop every ring but GENERIC runs;
``GenericAlpha.matmul`` multiplies raw polynomial terms.  The kernel must
give the entries the base loop gives, store no zero, and commute with
every specialization.
"""

import random
from fractions import Fraction

import pytest

from annkh import tqft
from annkh.errors import ShapeMismatchError
from annkh.ring import (
    A0,
    A1,
    GENERIC,
    GF,
    INT,
    QH,
    BivariatePoly,
    CoefficientRing,
    alpha_eval,
)

from conftest import specialize_entries


def rand_poly(rng):
    """A nonzero polynomial of degree at most 3, coefficients of both signs."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, 3)
            j = rng.randint(0, 3 - i)
            terms[(i, j)] = rng.choice((-3, -2, -1, 1, 2, 3))
        p = BivariatePoly(terms)
        if p:
            return p


def rand_matrix(rng, nrows, ncols, density, pool):
    """Sparse GENERIC ``(nrows, ncols, entries)`` drawing entries from
    ``pool`` and its negatives, so sums of products often cancel."""
    entries = {}
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                p = rng.choice(pool)
                entries[(r, c)] = -p if rng.random() < 0.5 else p
    return (nrows, ncols, entries)


def base_product(a, b):
    return CoefficientRing.matmul(GENERIC, a[2], b[2])


def cases():
    rng = random.Random(20081)
    out = []
    for n in range(120):
        pool = [rand_poly(rng) for _ in range(rng.randint(1, 4))]
        m = rng.randint(0, 6) if n % 10 else 0
        k = rng.randint(0, 6)
        c = rng.randint(0, 6) if n % 7 else 0
        density = rng.choice((0.2, 0.5, 0.9))
        out.append(
            (rand_matrix(rng, m, k, density, pool), rand_matrix(rng, k, c, density, pool))
        )
    # whole entries cancel: p*q - p*q
    p, q = A0 - 2 * A1, A1 * A1 + 3
    out.append(
        (
            (1, 2, {(0, 0): p, (0, 1): p}),
            (2, 2, {(0, 0): q, (1, 0): -q, (1, 1): A0}),
        )
    )
    # some terms cancel, others stay: (a0 + 1) + (a0 - 1) = 2 a0
    out.append(
        (
            (1, 2, {(0, 0): A0 + 1, (0, 1): A0 - 1}),
            (2, 1, {(0, 0): GENERIC.one(), (1, 0): GENERIC.one()}),
        )
    )
    return out


CASES = cases()


def test_cases_cover_the_edge_shapes():
    """The seeded cases reach every situation the kernel must handle."""
    shapes = [(a[0], a[1], b[1]) for a, b in CASES]
    assert any(m == 0 for m, _, _ in shapes)
    assert any(k == 0 for _, k, _ in shapes)
    assert any(c == 0 for _, _, c in shapes)
    whole, partial, empty_row, empty_col = 0, 0, 0, 0
    for a, b in CASES:
        out = base_product(a, b)
        naive = {}
        for (r, k), u in a[2].items():
            for (k2, c), v in b[2].items():
                if k == k2:
                    naive.setdefault((r, c), []).append(u * v)
        whole += sum(1 for key in naive if key not in out)
        for key, prods in naive.items():
            if key in out:
                raw = {t for p in prods for t in p.terms}
                partial += len(raw) > len(out[key].terms)
        empty_row += any(not any(r == i for r, _ in a[2]) for i in range(a[0]))
        empty_col += any(not any(c == j for _, c in b[2]) for j in range(b[1]))
    assert whole and partial and empty_row and empty_col


def test_kernel_matches_base_loop():
    for n, (a, b) in enumerate(CASES):
        out = GENERIC.matmul(a[2], b[2])
        assert out == base_product(a, b), n
        for (r, c), v in out.items():
            assert 0 <= r < a[0] and 0 <= c < b[1], n
            assert isinstance(v, BivariatePoly) and v.terms, n
            assert all(v.terms.values()), n


def bound_cases():
    """Operand pairs at the edges of the kernel's packed int keys: the
    product's top term takes its a0-exponent from the left and its
    a1-exponent from the right, a column of the right operand lies far
    beyond every row and column of the left one, or an operand is empty."""
    a0_3, a1_3, n = A0 * A0 * A0, A1 * A1 * A1, GENERIC.from_int
    left = (2, 2, {(0, 0): a0_3, (1, 0): n(5), (1, 1): a0_3 - 2})
    right = (2, 3, {(0, 2): a1_3 + 1, (1, 0): -a1_3, (1, 2): n(3)})
    tall = (2, 1, {(0, 0): A0, (1, 0): n(-2)})
    wide = (1, 60, {(0, 3): A1, (0, 57): A0 * A1})
    return {
        "asymmetric_exponents": (left, right),
        "far_column": (tall, wide),
        "empty_left": ((2, 2, {}), right),
        "empty_right": (left, (2, 3, {})),
        "both_empty": ((1, 4, {}), (4, 1, {})),
    }


@pytest.mark.parametrize("name", sorted(bound_cases()))
def test_kernel_matches_base_loop_at_the_key_bounds(name):
    a, b = bound_cases()[name]
    out = GENERIC.matmul(a[2], b[2])
    assert out == base_product(a, b)
    if name == "asymmetric_exponents":
        # the top term a0^3 a1^3 sits at the largest packed exponent pair
        assert (3, 3) in out[(0, 2)].terms and (3, 3) in out[(1, 0)].terms
    elif name == "far_column":
        assert set(out) == {(0, 3), (0, 57), (1, 3), (1, 57)}
    else:
        assert out == {}


def test_compose_of_mismatched_spaces_raises():
    one, two = (tqft.make_space(GENERIC, [(False, None)] * k) for k in (1, 2))
    f = tqft.identity_map(one)
    g = tqft.LinearMap(two, two, {(0, 0): A1})
    with pytest.raises(ShapeMismatchError):
        tqft.compose(f, g)
    # equal ranks do not make equal spaces: an essential slot is not a
    # trivial one
    ess = tqft.make_space(GENERIC, [(True, 1)])
    with pytest.raises(ShapeMismatchError):
        tqft.compose(tqft.identity_map(ess), tqft.identity_map(one))
    assert tqft.compose(f, f).entries == f.entries


SPECIALIZATIONS = {
    "int": INT,
    "gf3": GF(3),
    "qh": QH,
    "alpha_2_1/3": alpha_eval(2, Fraction(1, 3)),
}


@pytest.mark.parametrize("name", sorted(SPECIALIZATIONS))
def test_specialization_commutes_with_the_product(name):
    t = SPECIALIZATIONS[name]
    for a, b in CASES:
        lhs = specialize_entries(GENERIC.matmul(a[2], b[2]), t)
        rhs = t.matmul(specialize_entries(a[2], t), specialize_entries(b[2], t))
        assert lhs == rhs
