"""The rank-2 Frobenius algebra underlying the link homology theories.

Over a coefficient ring with generator images (i0, i1), the algebra is
R[X]/((X - i0)(X - i1)), a free module with basis {1, X}.  The trace
sends 1 to 0 and X to 1.  Several distinguished bases are supported:

* ``ONE_X``     -- {1, X}, the canonical internal basis (trivial circles)
* ``V``         -- {1, X - i0} (essential circles in odd position)
* ``V_PRIME``   -- {1, X - i1} (essential circles in even position)
* ``E``         -- the idempotents {e0, e1}; needs distinct evaluated
                   parameters so their denominators are invertible
* ``D_V``/``D_V_PRIME`` -- the rescaled essential bases of the localized
                   theory, {1, (X - i0)/(i1 - i0)} and {1, (X - i1)/(i0 - i1)}

Every operation converts through ONE_X, so there is a single conversion
layer rather than pairwise converters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidBasisError, RingMismatchError
from .linalg import accumulate
from .ring import AlphaEval

ONE_X = "ONE_X"
V = "V"
V_PRIME = "V_PRIME"
E = "E"
D_V = "D_V"
D_V_PRIME = "D_V_PRIME"

BASIS_TAGS = (ONE_X, V, V_PRIME, E, D_V, D_V_PRIME)

# ((qdeg, adeg) of b0, (qdeg, adeg) of b1) per convention.  The
# localized bases sit entirely in quantum degree -1 because their
# generators carry a degree-2 denominator.  A convention decorates one
# kind of circle: V, V', D_V and D_V' essential ones, which carry
# annular degree -1/+1, and ONE_X and E trivial ones, which carry none.
_BIDEGREE = {
    ONE_X: ((-1, 0), (1, 0)),
    V: ((-1, -1), (1, 1)),
    V_PRIME: ((-1, -1), (1, 1)),
    E: ((-1, 0), (-1, 0)),
    D_V: ((-1, -1), (-1, 1)),
    D_V_PRIME: ((-1, -1), (-1, 1)),
}

_EVAL_ONLY = (E, D_V, D_V_PRIME)


@dataclass(frozen=True)
class AlgebraElement:
    """Element c0*b0 + c1*b1 in a chosen basis convention."""

    ring: object
    basis: str
    c0: object
    c1: object

    @property
    def coords(self):
        return (self.c0, self.c1)

    def is_zero(self):
        return self.ring.is_zero(self.c0) and self.ring.is_zero(self.c1)

    def __str__(self):
        names = {
            ONE_X: ("1", "X"),
            V: ("v0", "v1"),
            V_PRIME: ("v0'", "v1'"),
            E: ("e0", "e1"),
            D_V: ("vbar0", "vbar1"),
            D_V_PRIME: ("vbar0'", "vbar1'"),
        }[self.basis]
        parts = []
        for c, name in zip(self.coords, names):
            if not self.ring.is_zero(c):
                parts.append(f"({self.ring.to_str(c)})*{name}")
        return " + ".join(parts) if parts else "0"


def check_basis(ring, basis):
    if basis not in BASIS_TAGS:
        raise InvalidBasisError(f"unknown basis {basis!r}")
    if basis in _EVAL_ONLY:
        if not (isinstance(ring, AlphaEval) and ring.distinct):
            raise InvalidBasisError(
                f"{basis} needs evaluated parameters with distinct values"
            )


class Frobenius:
    """Structure maps of the algebra over a fixed coefficient ring."""

    def __init__(self, ring):
        self.ring = ring
        self.i0, self.i1 = ring.alpha_images()
        self.e1_img = ring.add(self.i0, self.i1)  # X^2 coefficient on X
        self.e2_img = ring.mul(self.i0, self.i1)  # minus the constant term

    # -- basis plumbing ---------------------------------------------------

    def element(self, basis, c0, c1):
        check_basis(self.ring, basis)
        return AlgebraElement(self.ring, basis, c0, c1)

    def to_one_x(self, a):
        """Coordinates of a on {1, X}."""
        r = self.ring
        c0, c1 = a.c0, a.c1
        b = a.basis
        if b == ONE_X:
            return c0, c1
        if b == V:
            return r.sub(c0, r.mul(self.i0, c1)), c1
        if b == V_PRIME:
            return r.sub(c0, r.mul(self.i1, c1)), c1
        # evaluated-parameter bases
        q0, q1 = self.i0, self.i1
        d = q1 - q0
        if b == E:
            return (q1 * c1 - q0 * c0) / d, (c0 - c1) / d
        if b == D_V:
            return c0 - q0 * c1 / d, c1 / d
        if b == D_V_PRIME:
            return c0 + q1 * c1 / d, -c1 / d
        raise InvalidBasisError(b)

    def from_one_x(self, basis, d0, d1):
        r = self.ring
        if basis == ONE_X:
            return self.element(ONE_X, d0, d1)
        if basis == V:
            return self.element(V, r.add(d0, r.mul(self.i0, d1)), d1)
        if basis == V_PRIME:
            return self.element(V_PRIME, r.add(d0, r.mul(self.i1, d1)), d1)
        check_basis(self.ring, basis)
        q0, q1 = self.i0, self.i1
        if basis == E:
            return self.element(E, d0 + q1 * d1, d0 + q0 * d1)
        if basis == D_V:
            return self.element(D_V, d0 + q0 * d1, d1 * (q1 - q0))
        if basis == D_V_PRIME:
            return self.element(D_V_PRIME, d0 + q1 * d1, d1 * (q0 - q1))
        raise InvalidBasisError(basis)

    def convert(self, a, to):
        """Same element, new coordinates.  Round trips are identities."""
        self._check_ring(a)
        d0, d1 = self.to_one_x(a)
        return self.from_one_x(to, d0, d1)

    # -- structure maps ---------------------------------------------------

    def unit(self):
        r = self.ring
        return self.element(ONE_X, r.one(), r.zero())

    def counit(self, a):
        """The trace: 1 -> 0, X -> 1, extended linearly."""
        self._check_ring(a)
        _, d1 = self.to_one_x(a)
        return d1

    def mult(self, a, b):
        """Product in the quotient by (X - i0)(X - i1); output in ONE_X."""
        self._check_ring(a)
        self._check_ring(b)
        r = self.ring
        a0, a1 = self.to_one_x(a)
        b0, b1 = self.to_one_x(b)
        # (a0 + a1 X)(b0 + b1 X) with X^2 = (i0+i1) X - i0 i1
        xx = r.mul(a1, b1)
        d0 = r.sub(r.mul(a0, b0), r.mul(self.e2_img, xx))
        d1 = r.add(
            r.add(r.mul(a0, b1), r.mul(a1, b0)), r.mul(self.e1_img, xx)
        )
        return self.element(ONE_X, d0, d1)

    def comult_tensor(self, a):
        """Comultiplication as coordinates on {1, X} tensor {1, X}.

        Returns a dict (i, j) -> value where i, j index {1, X}.
        """
        self._check_ring(a)
        r = self.ring
        d0, d1 = self.to_one_x(a)
        # 1 -> X(x)1 + 1(x)X - (i0+i1) 1(x)1,  X -> X(x)X - i0 i1 1(x)1
        items = [
            ((1, 0), d0),
            ((0, 1), d0),
            ((0, 0), r.neg(r.mul(self.e1_img, d0))),
            ((1, 1), d1),
            ((0, 0), r.neg(r.mul(self.e2_img, d1))),
        ]
        return accumulate(r, {}, items)

    def x_action(self, a):
        """Full multiplication by X, returned in the input's convention."""
        self._check_ring(a)
        r = self.ring
        x = self.element(ONE_X, r.zero(), r.one())
        prod = self.mult(a, x)
        return self.convert(prod, a.basis)

    def _check_ring(self, a):
        if a.ring != self.ring:
            raise RingMismatchError(f"{a.ring} vs {self.ring}")


def basis_bidegree(basis, index):
    """(qdeg, adeg) of the index-th basis vector of a slot convention."""
    return _BIDEGREE[basis][index]
