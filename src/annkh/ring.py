"""Exact coefficient arithmetic.

The ground ring is the polynomial ring in two deformation parameters
a0, a1 (class :class:`BivariatePoly`, with int or Fraction
coefficients, so Z[a0, a1] or Q[a0, a1]).  Homology is computed after
specializing to one of several coefficient rings:

* ``INT``     -- integers, a0 = a1 = 0
* ``RAT``     -- rationals, a0 = a1 = 0
* ``GF(p)``   -- the prime field, a0 = a1 = 0
* ``QH``      -- Q[h], a0 = 0 and a1 = h: the a1-only part of Q[a0, a1]
* ``alpha_eval(q0, q1)`` -- rationals with a0, a1 evaluated at q0, q1
* ``GENERIC`` -- no specialization (matrix arithmetic only; no Smith
  normal form since the bivariate ring is not Euclidean)

Ring elements are plain values: ints, Fractions or
:class:`BivariatePoly` (a Q[h] value is a polynomial in a1 alone).  The
ring object does the arithmetic on them (``add``, ``sub``, ``mul``,
``divmod``, ...); its defaults are the Python operators, and a ring
overrides only what differs, as the prime fields reduce modulo p.  All
arithmetic is exact: arbitrary-precision integers, reduced fractions,
canonical residues.  No floating point anywhere.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import UnsupportedRingError


# ---------------------------------------------------------------------------
# The bivariate ground ring Z[a0, a1]


class BivariatePoly:
    """Sparse polynomial in a0, a1 with int or Fraction coefficients,
    keyed by exponent pairs.  A number is a constant polynomial: it
    equals and hashes as one, and mixes with one in sums and products.

    Instances are immutable by convention; no stored coefficient is zero.

    >>> p = A0 + A1
    >>> print(p * (A0 - A1))
    -a1^2 + a0^2
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def from_int(cls, n):
        """The constant polynomial n, an int or a Fraction."""
        return cls({(0, 0): n})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, BivariatePoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == BivariatePoly.from_int(other).terms
        return NotImplemented

    def __hash__(self):
        # a constant equals its number, so it hashes as that number
        terms = self.terms
        if terms.keys() <= {(0, 0)}:
            return hash(terms.get((0, 0), 0))
        return hash(frozenset(terms.items()))

    def __add__(self, other):
        if not isinstance(other, BivariatePoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = BivariatePoly.from_int(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = BivariatePoly()
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = BivariatePoly()
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if not isinstance(other, BivariatePoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = BivariatePoly.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return BivariatePoly.from_int(other) - self

    def __mul__(self, other):
        if not isinstance(other, BivariatePoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = BivariatePoly.from_int(other)
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        res = BivariatePoly()
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        res = BivariatePoly.from_int(1)
        for _ in range(n):
            res = res * self
        return res

    def qdeg(self):
        """Quantum degree: 2*(i+j) when homogeneous, None when mixed
        or zero."""
        degs = {i + j for (i, j) in self.terms}
        if len(degs) != 1:
            return None
        return 2 * degs.pop()

    def __str__(self):
        return _poly_str(
            ("*".join(filter(None, (_power("a0", i), _power("a1", j)))), c)
            for (i, j), c in sorted(self.terms.items())
        )

    def __repr__(self):
        return f"BivariatePoly({self})"


def _power(name, k):
    """The monomial name^k as printed; empty for k = 0."""
    return "" if k == 0 else name if k == 1 else f"{name}^{k}"


def _poly_str(terms):
    """Print ``(monomial, coefficient)`` pairs in their order, the
    constant's monomial empty: ``-h``, ``1/2*h^3 - 3/4``; ``0`` if none."""
    text = ""
    for mono, c in terms:
        mag = abs(c)
        term = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not text:
            text = "-" + term if c < 0 else term
        else:
            text += f" {'-' if c < 0 else '+'} {term}"
    return text or "0"


A0 = BivariatePoly({(1, 0): 1})
A1 = BivariatePoly({(0, 1): 1})
E1 = A0 + A1
E2 = A0 * A1
DISCRIMINANT = (A0 - A1) ** 2


# ---------------------------------------------------------------------------
# Coefficient rings


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on these bases is exact below this bound (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2017)
PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether n < PRIME_TEST_BOUND is prime, by Miller-Rabin."""
    if n < 2 or any(n % a == 0 for a in _BASES):
        return n in _BASES
    twos = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = odd * 2^twos
    odd = (n - 1) >> twos
    for a in _BASES:
        x = pow(a, odd, n)
        if x != 1 and n - 1 not in (pow(x, 1 << j, n) for j in range(twos)):
            return False
    return True


class CoefficientRing:
    """Abstract ring protocol.

    Concrete rings expose ``kind`` plus exact arithmetic on plain values:
    ints, Fractions, or :class:`BivariatePoly` with int or Fraction
    coefficients, depending on the ring (Q[h] takes the a1-only ones).
    The ring, not a separate switch, fixes the theory's conventions:
    ``preserves_qdeg`` says whether maps keep the quantum grading, and
    ``tqft`` gives annular slots over :class:`AlphaEval` the localized
    bases.  ``kind`` only labels the ring in messages and hashes.
    """

    kind = "?"
    is_euclidean = False
    preserves_qdeg = True  # maps keep the quantum grading over this ring

    def zero(self):
        raise NotImplementedError

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        raise NotImplementedError

    # The Python operators on the plain values (is_zero(a) is `not a`);
    # a ring overrides what differs, as PrimeField reduces modulo p.
    is_zero = staticmethod(operator.not_)
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)

    def matmul(self, left, right):
        """Entries of the product of two matrices given as entry dicts
        ``(row, col) -> value`` with no zero value; the result has none.
        Every product of maps runs this loop (``tqft.compose`` and the
        d^2 checks' ``complexes._square``), so a ring may override it
        with a faster one on its own values."""
        add, mul, is_zero, zero = self.add, self.mul, self.is_zero, self.zero()
        by_row = {}
        for (r, c), v in right.items():
            by_row.setdefault(r, []).append((c, v))
        out = {}
        for (r, k), u in left.items():
            for c, v in by_row.get(k, ()):
                key = (r, c)
                s = add(out.get(key, zero), mul(u, v))
                if is_zero(s):
                    out.pop(key, None)
                else:
                    out[key] = s
        return out

    def divmod(self, a, b):
        """(q, r) with a = q*b + r and size(r) < size(b)."""
        raise UnsupportedRingError(f"no Euclidean division over {self.kind}")

    def size(self, a):
        """Euclidean size; only meaningful for Euclidean rings."""
        raise UnsupportedRingError(f"no Euclidean size over {self.kind}")

    def normalize_unit(self, a):
        """Return (u, a*u) with u a unit making a*u canonical."""
        return self.one(), a

    def is_unit(self, a):
        """Whether a is invertible; elimination may pivot on it."""
        return False

    def alpha_images(self):
        """Images of the generators a0, a1 under the specialization."""
        raise NotImplementedError

    def specialize_poly(self, p):
        """Image of a bivariate polynomial under the specialization: its
        terms evaluated at :meth:`alpha_images` in this ring."""
        x0, x1 = self.alpha_images()
        add, mul = self.add, self.mul
        out = self.zero()
        for (i, j), c in p.terms.items():
            t = self.from_int(c)
            for x in (x0,) * i + (x1,) * j:
                t = mul(t, x)
            out = add(out, t)
        return out

    def scalar_qdeg(self, a):
        """Quantum degree of a nonzero value; None if inhomogeneous."""
        return 0

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return self.kind

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(self.kind)


class IntRing(CoefficientRing):
    kind = "INT"
    is_euclidean = True

    def zero(self):
        return 0

    def from_int(self, n):
        """n as an int; a Fraction must be integral."""
        if isinstance(n, Fraction) and n.denominator != 1:
            raise ValueError(f"{n} is not in Z")
        return int(n)

    def divmod(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in INT")
        # round-toward-zero division so |r| < |b|
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return q, a - q * b

    def size(self, a):
        return abs(a)

    def normalize_unit(self, a):
        return (1, a) if a >= 0 else (-1, -a)

    def is_unit(self, a):
        return a in (1, -1)

    def alpha_images(self):
        return 0, 0


class RatRing(CoefficientRing):
    kind = "RAT"
    is_euclidean = True

    def zero(self):
        return Fraction(0)

    def from_int(self, n):
        return Fraction(n)

    def divmod(self, a, b):
        if b == 0:
            raise ZeroDivisionError(f"division by zero in {self!r}")
        return a / b, Fraction(0)

    def size(self, a):
        return 0 if a == 0 else 1

    def normalize_unit(self, a):
        if a == 0:
            return Fraction(1), Fraction(0)
        return 1 / a, Fraction(1)

    def is_unit(self, a):
        return a != 0

    def alpha_images(self):
        return Fraction(0), Fraction(0)


class PrimeField(CoefficientRing):
    is_euclidean = True

    def __init__(self, p):
        if p >= PRIME_TEST_BOUND:
            raise ValueError(f"{p} >= {PRIME_TEST_BOUND}, the bound of the prime test")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def kind(self):
        return "PRIME_FIELD"

    def zero(self):
        return 0

    def from_int(self, n):
        """n mod p; a Fraction's denominator must be prime to p."""
        if isinstance(n, Fraction):
            return n.numerator * pow(n.denominator, -1, self.p) % self.p
        return n % self.p

    def divmod(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return (a * pow(b, -1, self.p)) % self.p, 0

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def size(self, a):
        return 0 if a % self.p == 0 else 1

    def normalize_unit(self, a):
        a %= self.p
        if a == 0:
            return 1, 0
        return pow(a, -1, self.p), 1

    def is_unit(self, a):
        return a % self.p != 0

    def alpha_images(self):
        return 0, 0

    def __repr__(self):
        return f"GF({self.p})"

    def __hash__(self):
        return hash(("PRIME_FIELD", self.p))


class RatPolyH(CoefficientRing):
    """Q[h], the a1-only part of Q[a0, a1]: a0 = 0 and a1 = h.  Values
    are :class:`BivariatePoly` in a1 alone, exponent pairs ``(0, k)``."""

    kind = "RAT_POLY_H"
    is_euclidean = True

    def zero(self):
        return BivariatePoly()

    def from_int(self, n):
        return BivariatePoly.from_int(n)

    def divmod(self, a, b):
        """Long division on the a1-exponent."""
        if not b:
            raise ZeroDivisionError("division by zero in Q[h]")
        d = self.size(b) - 1
        lead = Fraction(b.terms[(0, d)])
        lower = [(j, c) for (_, j), c in b.terms.items() if j < d]
        q, r = {}, dict(a.terms)
        for k in range(self.size(a) - 1 - d, -1, -1):
            c = r.pop((0, k + d), 0)
            if c:
                f = q[(0, k)] = c / lead
                for j, cb in lower:
                    key = (0, k + j)
                    s = r.get(key, 0) - f * cb
                    if s:
                        r[key] = s
                    else:
                        r.pop(key, None)
        return BivariatePoly(q), BivariatePoly(r)

    def size(self, a):
        # degree + 1, so the zero polynomial has strictly smallest size
        return max([j + 1 for _, j in a.terms], default=0)

    def normalize_unit(self, a):
        if not a:
            return self.one(), a
        u = 1 / Fraction(a.terms[(0, self.size(a) - 1)])
        return self.from_int(u), a * u

    def is_unit(self, a):
        return a.terms.keys() == {(0, 0)}

    def alpha_images(self):
        return BivariatePoly(), A1

    def scalar_qdeg(self, a):
        return a.qdeg()

    def to_str(self, a):
        return _poly_str(
            (_power("h", j), c) for (_, j), c in sorted(a.terms.items(), reverse=True)
        )


class AlphaEval(RatRing):
    """Q with a0, a1 evaluated at fixed rationals.

    With distinct values the discriminant (a0 - a1)^2 becomes an
    invertible scalar, which models the localized theory.
    """

    kind = "RAT_ALPHA_EVAL"
    preserves_qdeg = False  # a0, a1 of degree 2 become numbers of degree 0

    def __init__(self, q0, q1):
        self.q0 = Fraction(q0)
        self.q1 = Fraction(q1)

    def alpha_images(self):
        return self.q0, self.q1

    @property
    def distinct(self):
        return self.q0 != self.q1

    def __repr__(self):
        return f"ALPHA_EVAL({self.q0},{self.q1})"

    def __hash__(self):
        return hash(("RAT_ALPHA_EVAL", self.q0, self.q1))


class GenericAlpha(CoefficientRing):
    """The unspecialized bivariate ring.  Supports matrix arithmetic and
    d^2 = 0 checks; refuses Smith normal form (not Euclidean)."""

    kind = "GENERIC_ALPHA"

    def zero(self):
        return BivariatePoly()

    def from_int(self, n):
        return BivariatePoly.from_int(n)

    def alpha_images(self):
        return A0, A1

    def scalar_qdeg(self, a):
        return a.qdeg()

    def matmul(self, left, right):
        """The product on raw terms: term a0^i a1^j of entry (row, col)
        is summed at the int ``(row*ncols + col)*M + i*E + j``, where one
        scan of both operands gives ``E`` above every product a1-exponent,
        ``M`` above every ``i*E + j`` and ``ncols`` above every column, so
        a left term's part plus a right term's part is their product's
        key.  Keys are decoded once at the end: terms that cancel leave no
        term and entries that cancel no entry."""
        (i1, j1), (i2, j2) = _top_exponents(left), _top_exponents(right)
        ncols = max(map(operator.itemgetter(1), right), default=-1) + 1
        E = j1 + j2 + 1
        M = (i1 + i2 + 1) * E
        by_row = {}
        for (k, c), v in right.items():
            row = by_row.setdefault(k, [])
            for (i, j), cf in v.terms.items():
                row.append((c * M + i * E + j, cf))
        acc = {}
        get = acc.get
        for (r, k), u in left.items():
            row = by_row.get(k)
            if row is None:
                continue
            base = r * ncols * M
            for (i, j), c1 in u.terms.items():
                part = base + i * E + j
                for rest, c2 in row:
                    key = part + rest
                    acc[key] = get(key, 0) + c1 * c2
        out = {}
        for key, s in acc.items():
            if s:
                rc, ij = divmod(key, M)
                rc, ij = divmod(rc, ncols), divmod(ij, E)
                p = out.get(rc)
                if p is None:
                    p = out[rc] = BivariatePoly()
                p.terms[ij] = s
        return out


def _top_exponents(entries):
    """The largest a0- and a1-exponent among the terms of the values."""
    pairs = set().union(*map(operator.attrgetter("terms"), entries.values()))
    return tuple(map(max, zip(*pairs))) if pairs else (0, 0)


INT = IntRing()
RAT = RatRing()
QH = RatPolyH()
GENERIC = GenericAlpha()


def GF(p):
    return PrimeField(p)


def alpha_eval(q0=0, q1=1):
    return AlphaEval(q0, q1)
