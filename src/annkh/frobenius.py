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
expansions of 1 and X on its basis.  Each :class:`Frobenius` inverts
those expansions once, for the conventions its ring admits: the ones
whose change of basis is invertible over the ring.  So every operation
converts through ONE_X in one step each way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidBasisError, RingMismatchError
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


class Frobenius:
    """Structure maps of the algebra over a fixed coefficient ring."""

    def __init__(self, ring):
        r = self.ring = ring
        self.i0, self.i1 = ring.alpha_images()
        self.e1_img = r.add(self.i0, self.i1)  # X^2 coefficient on X
        self.e2_img = r.mul(self.i0, self.i1)  # minus the constant term
        named = {
            0: r.zero(),
            1: r.one(),
            "i0": self.i0,
            "i1": self.i1,
            "i1-i0": r.sub(self.i1, self.i0),
            "i0-i1": r.sub(self.i0, self.i1),
        }
        # convention -> (matrix to {1, X}, matrix from {1, X}), row-major
        self._bases = {}
        for name, conv in CONVENTIONS.items():
            (u0, u1), (x0, x1) = ([named[t] for t in v] for v in conv.one_and_x)
            inv, normal = r.normalize_unit(r.sub(r.mul(u0, x1), r.mul(x0, u1)))
            if normal != r.one():
                continue  # the determinant is no unit: the ring admits no such basis
            to = (
                (r.mul(inv, x1), r.neg(r.mul(inv, x0))),
                (r.neg(r.mul(inv, u1)), r.mul(inv, u0)),
            )
            self._bases[name] = (to, ((u0, x0), (u1, x1)))

    # -- basis plumbing ---------------------------------------------------

    def _basis(self, basis):
        """The (to, from) {1, X} matrices of a basis the ring admits."""
        if basis not in self._bases:
            raise InvalidBasisError(f"no basis {basis!r} over {self.ring}")
        return self._bases[basis]

    def _change(self, m, c0, c1):
        r = self.ring
        return tuple(r.add(r.mul(a, c0), r.mul(b, c1)) for a, b in m)

    def element(self, basis, c0, c1):
        self._basis(basis)
        return AlgebraElement(self.ring, basis, c0, c1)

    def to_one_x(self, a):
        """Coordinates of a on {1, X}."""
        return self._change(self._basis(a.basis)[0], a.c0, a.c1)

    def from_one_x(self, basis, d0, d1):
        """The element with coordinates (d0, d1) on {1, X}, in ``basis``."""
        coords = self._change(self._basis(basis)[1], d0, d1)
        return AlgebraElement(self.ring, basis, *coords)

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
    return CONVENTIONS[basis].bidegrees[index]
