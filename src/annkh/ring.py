"""Exact coefficient arithmetic.

The ground ring is the integer polynomial ring in two deformation
parameters a0, a1 (class :class:`BivariatePoly`).  Homology is computed
after specializing to one of several coefficient rings:

* ``INT``     -- integers, a0 = a1 = 0
* ``RAT``     -- rationals, a0 = a1 = 0
* ``GF(p)``   -- the prime field, a0 = a1 = 0
* ``QH``      -- Q[h], a0 = 0 and a1 = h
* ``alpha_eval(q0, q1)`` -- rationals with a0, a1 evaluated at q0, q1
* ``GENERIC`` -- no specialization (matrix arithmetic only; no Smith
  normal form since the bivariate ring is not Euclidean)

Ring elements are plain values: ints, Fractions, :class:`HPoly` or
:class:`BivariatePoly`.  The ring object does the arithmetic on them
(``add``, ``sub``, ``mul``, ``divmod``, ...); its defaults are the
Python operators, and a ring overrides only what differs, as the prime
fields reduce modulo p.  All arithmetic is exact: arbitrary-precision
integers, reduced fractions, canonical residues.  No floating point
anywhere.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import UnsupportedRingError


# ---------------------------------------------------------------------------
# The bivariate ground ring Z[a0, a1]


class BivariatePoly:
    """Sparse integer polynomial in a0, a1, keyed by exponent pairs.

    Instances are immutable by convention; no stored coefficient is zero.

    >>> p = A0 + A1
    >>> print(p * (A0 - A1))
    a0^2 - a1^2
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in terms.items():
                c = int(c)
                if c:
                    clean[(int(i), int(j))] = c
        self.terms = clean

    @classmethod
    def from_int(cls, n):
        return cls({(0, 0): n})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = BivariatePoly.from_int(other)
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        terms = self.terms
        if terms.keys() <= {(0, 0)}:
            return hash(terms.get((0, 0), 0))
        return hash(frozenset(terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
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
        if isinstance(other, int):
            other = BivariatePoly.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return BivariatePoly.from_int(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            other = BivariatePoly.from_int(other)
        if not isinstance(other, BivariatePoly):
            return NotImplemented
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
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items()):
            mono = []
            if i:
                mono.append("a0" if i == 1 else f"a0^{i}")
            if j:
                mono.append("a1" if j == 1 else f"a1^{j}")
            body = "*".join(mono)
            if not body:
                term = str(abs(c))
            elif abs(c) == 1:
                term = body
            else:
                term = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def __repr__(self):
        return f"BivariatePoly({self})"


A0 = BivariatePoly({(1, 0): 1})
A1 = BivariatePoly({(0, 1): 1})
E1 = A0 + A1
E2 = A0 * A1
DISCRIMINANT = (A0 - A1) ** 2


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Q, the ring Q[h]


class HPoly:
    """Dense univariate polynomial over Q in the variable h."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (Fraction(coeffs),)
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def gen(cls):
        return cls((0, 1))

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HPoly(other)
        if not isinstance(other, HPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as that value
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HPoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] += c
        return HPoly(a)

    __radd__ = __add__

    def __neg__(self):
        return HPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HPoly(other)
        return self + (-other)

    def __rsub__(self, other):
        return HPoly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HPoly(other)
        if not isinstance(other, HPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return HPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return HPoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        r = list(self.coeffs)
        d = other.degree()
        lead = other.leading()
        while len(r) - 1 >= d and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            f = r[-1] / lead
            k = len(r) - 1 - d
            q[k] = f
            for i, c in enumerate(other.coeffs):
                r[k + i] -= f * c
        return HPoly(q), HPoly(r)

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.leading()
        return HPoly([c / lead for c in self.coeffs])

    def qdeg(self):
        """h carries quantum degree 2; defined for monomials only, None
        otherwise."""
        nz = [k for k, c in enumerate(self.coeffs) if c != 0]
        if len(nz) != 1:
            return None
        return 2 * nz[0]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree(), -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                hpow = "h" if k == 1 else f"h^{k}"
                body = hpow if abs(c) == 1 else f"{abs(c)}*{hpow}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"HPoly({self})"


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

    Concrete rings expose ``kind`` plus exact arithmetic on plain values
    (ints, Fractions, HPoly, or BivariatePoly depending on the ring).
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
        Every ``SparseMatrix`` product runs this loop, so a ring may
        override it with a faster one on its own values."""
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
    kind = "RAT_POLY_H"
    is_euclidean = True

    def zero(self):
        return HPoly(())

    def from_int(self, n):
        return HPoly(n)

    def divmod(self, a, b):
        if b.is_zero():
            raise ZeroDivisionError("division by zero in Q[h]")
        return a.divmod(b)

    def size(self, a):
        # shift so the zero polynomial has strictly smallest size
        return a.degree() + 1

    def normalize_unit(self, a):
        if a.is_zero():
            return HPoly(1), a
        return HPoly(1 / a.leading()), a.monic()

    def is_unit(self, a):
        return a.degree() == 0

    def alpha_images(self):
        return HPoly(()), HPoly.gen()

    def scalar_qdeg(self, a):
        return a.qdeg()


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
