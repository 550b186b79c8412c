"""The rank-2 Frobenius algebra underlying the link homology theories.

Over a coefficient ring with generator images (i0, i1), the algebra is
R[X]/((X - i0)(X - i1)), a free module with basis {1, X}.  The trace
sends 1 to 0 and X to 1.  Several distinguished bases are supported:

* ``ONE_X``     -- {1, X}, the canonical internal basis (trivial circles)
* ``V``         -- {1, X - i0} (essential circles in odd position)
* ``V_PRIME``   -- {1, X - i1} (essential circles in even position)
* ``E``         -- the idempotents {e0, e1}; needs i1 - i0 invertible,
                   as over distinct evaluated parameters
* ``D_V``/``D_V_PRIME`` -- the rescaled essential bases of the localized
                   theory, {1, (X - i0)/(i1 - i0)} and {1, (X - i1)/(i0 - i1)}

One table, :data:`CONVENTIONS`, holds every fact about a convention:
the bidegree of each basis vector, the letter a/b that the canonical
generators of the localized theory give each of its vectors, and the
expansions of 1 and X on its basis.  :func:`basis_change` turns those
expansions into the change of basis over a ring, for the conventions
the ring admits: the ones whose change of basis is invertible over it.

The algebra is its local tables.  Its structure maps are written once,
on {1, X} coordinates, in :func:`cobordism`, which reads a connected
genus-0 cobordism off them; ``tqft.local_table`` truncates, memoizes
and places what it returns.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .errors import InvalidBasisError
from .linalg import accumulate

ONE_X = "ONE_X"
V = "V"
V_PRIME = "V_PRIME"
E = "E"
D_V = "D_V"
D_V_PRIME = "D_V_PRIME"


class Convention(NamedTuple):
    """Every fact about one slot basis {b0, b1}."""

    bidegrees: tuple  # (qdeg, adeg) of b0 and of b1
    # 1 and X on {b0, b1}; an entry names a ring value: 0, 1, the image
    # i0 or i1 of a0 or a1, or their difference
    one_and_x: tuple
    letters: tuple = None  # canonical letter of b0 and of b1, if localized


# The localized bases sit entirely in quantum degree -1 because their
# generators carry a degree-2 denominator.  A convention decorates one
# kind of circle: V, V', D_V and D_V' essential ones, which carry
# annular degree -1/+1, and ONE_X and E trivial ones, which carry none.
CONVENTIONS = {
    ONE_X: Convention(((-1, 0), (1, 0)), ((1, 0), (0, 1))),
    V: Convention(((-1, -1), (1, 1)), ((1, 0), ("i0", 1))),
    V_PRIME: Convention(((-1, -1), (1, 1)), ((1, 0), ("i1", 1))),
    E: Convention(((-1, 0), (-1, 0)), ((1, 1), ("i1", "i0")), ("a", "b")),
    D_V: Convention(((-1, -1), (-1, 1)), ((1, 0), ("i0", "i1-i0")), ("b", "a")),
    D_V_PRIME: Convention(
        ((-1, -1), (-1, 1)), ((1, 0), ("i1", "i0-i1")), ("a", "b")
    ),
}

BASIS_TAGS = tuple(CONVENTIONS)


def basis_bidegree(basis, index):
    """(qdeg, adeg) of the index-th basis vector of a slot convention."""
    return CONVENTIONS[basis].bidegrees[index]


def basis_change(ring, basis):
    """``(vectors, one_and_x)`` for a slot convention over a ring: the
    {1, X} coordinates of its two basis vectors, and its coordinates of
    1 and of X.  A ring admits the basis when the determinant of the
    change is a unit; otherwise this raises ``InvalidBasisError``."""
    r = ring
    conv = CONVENTIONS.get(basis)
    if conv is not None:
        i0, i1 = r.alpha_images()
        named = {
            0: r.zero(),
            1: r.one(),
            "i0": i0,
            "i1": i1,
            "i1-i0": r.sub(i1, i0),
            "i0-i1": r.sub(i0, i1),
        }
        (u0, u1), (x0, x1) = ([named[t] for t in v] for v in conv.one_and_x)
        inv, normal = r.normalize_unit(r.sub(r.mul(u0, x1), r.mul(x0, u1)))
        if normal == r.one():
            vectors = (
                (r.mul(inv, x1), r.neg(r.mul(inv, u1))),
                (r.neg(r.mul(inv, x0)), r.mul(inv, u0)),
            )
            return vectors, ((u0, u1), (x0, x1))
    raise InvalidBasisError(f"no basis {basis!r} over {ring}")


def cobordism(ring, dom_convs, cod_convs, dots):
    """The connected genus-0 cobordism from slots of conventions
    ``dom_convs`` to slots of ``cod_convs``, carrying ``dots`` dots, as
    a local map {input bits: sorted (output bits, value) terms}: the
    product of the inputs (the unit if there are none), times X once per
    dot, comultiplied into the outputs (the counit if there are none),
    each output slot expanded from {1, X} into its convention.  A merge,
    split, dotted identity, birth or death is one of these.  The output
    conventions are checked before the input ones, so a refusal names
    the first basis the ring does not admit in that order."""
    r = ring
    i0, i1 = r.alpha_images()
    e1, e2 = r.add(i0, i1), r.mul(i0, i1)  # X^2 = e1 X - e2
    zero, one = r.zero(), r.one()
    outs = [basis_change(r, c)[1] for c in cod_convs]
    ins = [basis_change(r, c)[0] for c in dom_convs]

    def times(a, b):
        xx = r.mul(a[1], b[1])
        return (
            r.sub(r.mul(a[0], b[0]), r.mul(e2, xx)),
            r.add(r.add(r.mul(a[0], b[1]), r.mul(a[1], b[0])), r.mul(e1, xx)),
        )

    local = {}
    for bits in product((0, 1), repeat=len(ins)):
        d = (one, zero)
        for vectors, b in zip(ins, bits):
            d = times(d, vectors[b])
        for _ in range(dots):
            d = times(d, (zero, one))
        # on {1, X} per output slot: comultiplied, as it is, or traced
        if len(outs) == 2:
            # 1 -> X(x)1 + 1(x)X - e1 1(x)1,  X -> X(x)X - e2 1(x)1
            tensor = [
                ((1, 0), d[0]),
                ((0, 1), d[0]),
                ((0, 0), r.neg(r.mul(e1, d[0]))),
                ((1, 1), d[1]),
                ((0, 0), r.neg(r.mul(e2, d[1]))),
            ]
        elif outs:
            tensor = [((0,), d[0]), ((1,), d[1])]
        else:
            tensor = [((), d[1])]  # the counit: 1 -> 0, X -> 1
        terms = []  # each output slot changed from {1, X} to its convention
        for idx, v in tensor:
            for out in product((0, 1), repeat=len(outs)):
                c = v
                for o, i, one_and_x in zip(out, idx, outs):
                    c = r.mul(c, one_and_x[i][o])
                terms.append((out, c))
        local[bits] = sorted(accumulate(r, {}, terms).items())
    return local
