"""Sparse matrices over an exact coefficient ring.

Chain groups reach tens of thousands of generators (T(2,9) has about
20k), but differentials stay very sparse, so the operations here cost
time in proportion to the stored entries.  The exceptions are
``to_dense`` and ``field_rank``, which are meant for small matrices:
homology first shrinks each slice with ``homology.cancel_units``.
"""

from __future__ import annotations

from .errors import ShapeMismatchError


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
    def zeros(cls, ring, nrows, ncols):
        return cls(ring, nrows, ncols)

    @classmethod
    def identity(cls, ring, n):
        one = ring.one()
        return cls(ring, n, n, {(i, i): one for i in range(n)})

    @classmethod
    def from_rows(cls, ring, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if not ring.is_zero(v):
                    entries[(r, c)] = v
        return cls(ring, nrows, ncols, entries)

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
        ring = self.ring
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = ring.add(out.get(k, ring.zero()), v)
            if ring.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        res = SparseMatrix(ring, self.nrows, self.ncols)
        res.entries = out
        return res

    def __neg__(self):
        ring = self.ring
        res = SparseMatrix(ring, self.nrows, self.ncols)
        res.entries = {k: ring.neg(v) for k, v in self.entries.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        ring = self.ring
        out = {}
        for k, v in self.entries.items():
            w = ring.mul(s, v)
            if not ring.is_zero(w):
                out[k] = w
        res = SparseMatrix(ring, self.nrows, self.ncols)
        res.entries = out
        return res

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        ring = self.ring
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out = {}
        for (r, k), u in self.entries.items():
            for c, v in by_row.get(k, ()):
                key = (r, c)
                s = ring.add(out.get(key, ring.zero()), ring.mul(u, v))
                if ring.is_zero(s):
                    out.pop(key, None)
                else:
                    out[key] = s
        res = SparseMatrix(ring, self.nrows, other.ncols)
        res.entries = out
        return res

    def map_entries(self, fn, ring=None):
        """Entrywise image under fn, optionally into a different ring."""
        ring = ring or self.ring
        out = {}
        for k, v in self.entries.items():
            w = fn(v)
            if not ring.is_zero(w):
                out[k] = w
        res = SparseMatrix(ring, self.nrows, self.ncols)
        res.entries = out
        return res

    def submatrix(self, rows, cols):
        """Restriction to the given row/col index lists (in that order)."""
        rpos = {r: i for i, r in enumerate(rows)}
        cpos = {c: j for j, c in enumerate(cols)}
        out = {}
        for (r, c), v in self.entries.items():
            if r in rpos and c in cpos:
                out[(rpos[r], cpos[c])] = v
        res = SparseMatrix(self.ring, len(rows), len(cols))
        res.entries = out
        return res

    def to_dense(self):
        z = self.ring.zero()
        rows = [[z] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def triplets(self):
        """Deterministic sparse triplet dump: ``row col value`` lines."""
        lines = []
        for (r, c) in sorted(self.entries):
            lines.append(f"{r} {c} {self.ring.to_str(self.entries[(r, c)])}")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"SparseMatrix({self.ring}, {self.nrows}x{self.ncols}, "
            f"{len(self.entries)} entries)"
        )


def field_rank(ring, dense):
    """Rank of a dense matrix over a field by Gaussian elimination."""
    if not dense or not dense[0]:
        return 0
    rows = [list(r) for r in dense]
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for r in range(rank, len(rows)):
            if not ring.is_zero(rows[r][col]):
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            v = rows[r][col]
            if ring.is_zero(v):
                continue
            f, _ = ring.divmod(v, pv)
            row = rows[r]
            prow = rows[rank]
            for c in range(col, ncols):
                row[c] = ring.sub(row[c], ring.mul(f, prow[c]))
        rank += 1
        col += 1
    return rank
