"""The one sparse matrix type, and unit cancellation.

Every map in the pipeline is a :class:`SparseMatrix`: saddles, dotted
identities, births, deaths and the differential.  ``tqft.LinearMap`` is
a ``SparseMatrix`` between state spaces, so sums and products of maps
all run through the arithmetic here.  :func:`accumulate` sums
terms that share a key.  ``__matmul__`` checks shapes and hands the
product loop to the ring (``CoefficientRing.matmul``), which may run it
on its raw values: the GENERIC ring multiplies polynomial terms as ints.

Chain groups reach tens of thousands of generators (T(2,9) has about
20k), but differentials stay very sparse, so the operations here cost
time in proportion to the stored entries.  :func:`cancel_units` is the
elimination routine: over a field it gives the rank, and elsewhere it
leaves a small unit-free remainder for the Smith normal form.  The
exception is ``to_dense``, which is meant for small matrices.
"""

from __future__ import annotations

from .errors import ShapeMismatchError


def accumulate(ring, out, items):
    """Add ``(key, value)`` terms into the dict ``out``, dropping keys
    whose sum vanishes; returns ``out``."""
    add, is_zero, zero = ring.add, ring.is_zero, ring.zero()
    for key, v in items:
        s = add(out.get(key, zero), v)
        if is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s
    return out


class SparseMatrix:
    """Sparse matrix with entries in a :class:`~annkh.ring.CoefficientRing`.

    Entries are stored as a dict ``(row, col) -> value`` with no explicit
    zeros.  Instances are treated as immutable once built.
    """

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring, nrows, ncols, entries=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                if not ring.is_zero(v):
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise IndexError(f"entry ({r},{c}) out of range")
                    clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def wrap(cls, ring, nrows, ncols, entries):
        """A matrix holding ``entries`` as given, unchecked: for dicts the
        caller built itself, with no zero value and every index in range."""
        m = cls.__new__(cls)
        m.ring, m.nrows, m.ncols, m.entries = ring, nrows, ncols, entries
        return m

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        return cls(ring, nrows, ncols)

    @classmethod
    def identity(cls, ring, n):
        one = ring.one()
        return cls.wrap(ring, n, n, {(i, i): one for i in range(n)})

    def get(self, r, c):
        return self.entries.get((r, c), self.ring.zero())

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatchError("matrix addition shape mismatch")
        out = accumulate(self.ring, dict(self.entries), other.entries.items())
        return SparseMatrix.wrap(self.ring, self.nrows, self.ncols, out)

    def __neg__(self):
        neg = self.ring.neg
        out = {k: neg(v) for k, v in self.entries.items()}
        return SparseMatrix.wrap(self.ring, self.nrows, self.ncols, out)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        out = self.ring.matmul(self.entries, other.entries)
        return SparseMatrix.wrap(self.ring, self.nrows, other.ncols, out)

    def map_entries(self, fn, ring=None):
        """Entrywise image under fn, optionally into a different ring."""
        ring = ring or self.ring
        out = {}
        for k, v in self.entries.items():
            w = fn(v)
            if not ring.is_zero(w):
                out[k] = w
        return SparseMatrix.wrap(ring, self.nrows, self.ncols, out)

    def submatrix(self, rows, cols):
        """Restriction to the given row/col index lists (in that order)."""
        rpos = {r: i for i, r in enumerate(rows)}
        cpos = {c: j for j, c in enumerate(cols)}
        out = {}
        for (r, c), v in self.entries.items():
            if r in rpos and c in cpos:
                out[(rpos[r], cpos[c])] = v
        return SparseMatrix.wrap(self.ring, len(rows), len(cols), out)

    def to_dense(self):
        z = self.ring.zero()
        rows = [[z] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def __repr__(self):
        return (
            f"SparseMatrix({self.ring}, {self.nrows}x{self.ncols}, "
            f"{len(self.entries)} entries)"
        )


def cancel_units(m):
    """Cancel unit pivots of ``m`` by sparse Gaussian elimination.

    Returns ``(k, rest)`` with ``m`` equivalent to ``I_k`` plus ``rest``
    (block diagonal), so ``m`` has the rank of ``rest`` plus ``k`` and
    the non-unit Smith invariants of ``rest``.  ``rest`` keeps the
    surviving rows and columns in their original order and holds no
    unit entry.

    The matrix is kept as row dicts plus column index sets.  Pivots are
    found in sweeps over the rows, shortest row first, taking the unit
    whose column is shortest; choosing a pivot costs the length of its
    row, never a rescan of the matrix.  Sweeps repeat until one cancels
    nothing, since elimination can create new units.
    """
    ring = m.ring
    rows, cols = {}, {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    is_unit, is_zero = ring.is_unit, ring.is_zero
    zero = ring.zero()
    k = 0
    progress = True
    while progress:
        progress = False
        for p in sorted(rows, key=lambda r: len(rows[r])):
            prow = rows.get(p)
            if prow is None:
                continue
            q = None
            for c, v in prow.items():
                if is_unit(v) and (q is None or len(cols[c]) < len(cols[q])):
                    q = c
            if q is None:
                continue
            del rows[p]
            for c in prow:
                cols[c].discard(p)
            inv, _ = ring.divmod(ring.one(), prow.pop(q))
            for r in cols.pop(q):
                row = rows[r]
                f = ring.mul(row.pop(q), inv)
                for c, v in prow.items():
                    w = ring.sub(row.get(c, zero), ring.mul(f, v))
                    if not is_zero(w):
                        if c not in row:
                            cols[c].add(r)
                        row[c] = w
                    elif c in row:
                        del row[c]
                        cols[c].discard(r)
                if not row:
                    del rows[r]
            k += 1
            progress = True
    rpos = {r: i for i, r in enumerate(sorted(rows))}
    cpos = {c: j for j, c in enumerate(sorted(c for c, rs in cols.items() if rs))}
    rest = {
        (rpos[r], cpos[c]): v for r, row in rows.items() for c, v in row.items()
    }
    return k, SparseMatrix.wrap(ring, len(rpos), len(cpos), rest)
