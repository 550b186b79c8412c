"""Entry dicts, unit cancellation, and the Smith normal form's input.

Every map in the pipeline is an entry dict ``(row, col) -> value``
with no zero value: saddles, dotted identities, births, deaths and the
blocks of the differential.  :func:`accumulate` sums terms that share
a key, and the ring owns the product loop (``CoefficientRing.matmul``),
which may run on its raw values: the GENERIC ring multiplies
polynomial terms as ints.

Chain groups reach tens of thousands of generators (T(2,9) has about
20k), but differentials stay very sparse, so the operations here cost
time in proportion to the stored entries.  Elimination works in place
on a row form (``homology.homology`` builds one per slice straight from
the blocks).  :func:`cancel_units` gives the rank over a field, and
elsewhere leaves a small unit-free remainder, which :func:`packed`
renumbers into a :class:`SparseMatrix` for the Smith normal form, on
the same row update.  Nothing dense is built.
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
    """The input of the Smith normal form, as :func:`packed` builds it:
    an entry dict ``(row, col) -> value`` with no zero value and every
    index in range, stored as given.

    ``__matmul__``, ``submatrix`` and ``to_dense`` have no caller in
    ``annkh``: the benchmark's tracer wraps them by name (ROADMAP
    item 2)."""

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring, nrows, ncols, entries):
        self.ring, self.nrows, self.ncols, self.entries = ring, nrows, ncols, entries

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        out = self.ring.matmul(self.entries, other.entries)
        return SparseMatrix(self.ring, self.nrows, other.ncols, out)

    def submatrix(self, rows, cols):
        """Restriction to the given row/col index lists (in that order)."""
        rpos = {r: i for i, r in enumerate(rows)}
        cpos = {c: j for j, c in enumerate(cols)}
        out = {}
        for (r, c), v in self.entries.items():
            if r in rpos and c in cpos:
                out[(rpos[r], cpos[c])] = v
        return SparseMatrix(self.ring, len(rows), len(cols), out)

    def to_dense(self):
        """Rows as lists."""
        z = self.ring.zero()
        rows = [[z] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows


def row_form(entries):
    """Row dicts ``r -> {c: v}`` and column sets ``c -> {r}`` of an
    entry dict ``(r, c) -> v``."""
    rows, cols = {}, {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    return rows, cols


def row_subtractor(ring, rows, cols):
    """``subtract(r, f, prow)``: row ``r`` -= ``f * prow`` in a row form,
    keeping the column sets and dropping the row if it empties."""
    sub, mul, is_zero, zero = ring.sub, ring.mul, ring.is_zero, ring.zero()

    def subtract(r, f, prow):
        row = rows[r]
        for c, v in prow.items():
            w = sub(row.get(c, zero), mul(f, v))
            if not is_zero(w):
                if c not in row:
                    cols[c].add(r)
                row[c] = w
            elif c in row:
                del row[c]
                cols[c].discard(r)
        if not row:
            del rows[r]

    return subtract


def cancel_units(ring, rows, cols):
    """Cancel the unit pivots of a row form in place, by sparse
    Gaussian elimination.

    Returns the rows cancelled against a unit, in the order they were
    cancelled.  With ``k`` of them, the matrix is equivalent to ``I_k``
    plus what is left in ``rows`` and ``cols`` (block diagonal): so it
    has the rank of the remainder plus ``k`` and the non-unit Smith
    invariants of the remainder, which holds no unit entry.  The row
    updates change only the basis vector of each pivot row, so in a
    chain complex the next differential may drop those columns (see
    ``homology.homology``).

    Pivots are found in sweeps over the rows, shortest row first,
    taking the unit whose column is shortest; choosing a pivot costs
    the length of its row, never a rescan of the matrix.  Sweeps repeat
    until one cancels nothing, since elimination can create new units.
    """
    subtract = row_subtractor(ring, rows, cols)
    is_unit, mul, divmod_, one = ring.is_unit, ring.mul, ring.divmod, ring.one()
    pivot_rows = []
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
            inv, _ = divmod_(one, prow.pop(q))
            for r in cols.pop(q):
                subtract(r, mul(rows[r].pop(q), inv), prow)
            pivot_rows.append(p)
            progress = True
    return pivot_rows


def packed(ring, rows, cols):
    """A row form as a :class:`SparseMatrix` on its nonempty rows and
    columns, renumbered in their original order."""
    rpos = {r: i for i, r in enumerate(sorted(rows))}
    cpos = {c: j for j, c in enumerate(sorted(c for c, rs in cols.items() if rs))}
    rest = {
        (rpos[r], cpos[c]): v for r, row in rows.items() for c, v in row.items()
    }
    return SparseMatrix(ring, len(rpos), len(cpos), rest)
