"""The exact integer elimination kernel behind steinberg.linalg.

The kernel works over arbitrary-precision integers, as every matrix in
steinberg.linalg is an integer matrix.

Conventions:

* A sparse row is a dict mapping column index to a nonzero int.  Rows are
  identified by their position among the nonempty input rows.
* `echelon` processes columns left to right.  The pivot row for a column is
  the active row with the fewest nonzeros, ties broken by smallest absolute
  pivot entry, then by smallest row id.  Updates use the cross-multiplication
  rule row = pivot_entry * row - row_entry * pivot_row, applied to the row's
  dict in place, followed by division of the row by the gcd of its entries,
  which keeps entry growth controlled without leaving exact integer
  arithmetic.
* A column -> row ids index lists, for each column, the rows that have held
  it, so the pivot search and the elimination visit only the rows of the
  current column.  A row id is appended when the row gains the column and
  never removed: ids of rows that lost the column, became pivots or became
  zero, and repeated ids, are skipped when the column comes up.
"""

from math import gcd

BACKEND_NAME = "python"


def _gcd_reduce_dict(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def echelon(nrows, ncols, rows):
    """Reduce integer rows to (unnormalized) row echelon form.

    Args:
        nrows: number of rows of the matrix (unused; the rows are counted
            from the input).
        ncols: number of columns.
        rows: iterable of sparse rows ({col: int}); reduced in place, so
            the caller must not use them afterwards.

    Returns:
        (pivot_cols, pivot_rows): pivot columns in increasing order and the
        corresponding eliminated rows as sparse dicts.  len(pivot_cols) is
        the rank.  Each pivot row has its leading nonzero at its pivot
        column and support strictly to the right elsewhere; rows are
        gcd-reduced but not sign- or pivot-normalized.
    """
    # active[i] is row i, or None once it is a pivot row or zero.
    active = [r for r in rows if r]
    index = [[] for _ in range(ncols)]
    for i, r in enumerate(active):
        for j in r:
            index[j].append(i)
    live = len(active)
    pivot_cols = []
    pivot_rows = []
    for col in range(ncols):
        if not live:
            break
        ids = index[col]
        index[col] = None
        # Deterministic pivot choice: fewest nonzeros, then smallest
        # |entry|, then smallest row id.
        best = -1
        bnnz = 0
        babs = 0
        for i in ids:
            r = active[i]
            if r is None:
                continue
            v = r.get(col)
            if not v:
                continue
            n = len(r)
            a = -v if v < 0 else v
            if best < 0 or n < bnnz or (
                n == bnnz and (a < babs or (a == babs and i < best))
            ):
                best = i
                bnnz = n
                babs = a
        if best < 0:
            continue
        prow = active[best]
        active[best] = None
        live -= 1
        pv = prow[col]
        pivot_cols.append(col)
        pivot_rows.append(prow)
        # Eliminate the pivot column from every other row that holds it; a
        # repeated id finds the column gone and is skipped.
        for i in ids:
            r = active[i]
            if r is None:
                continue
            v = r.get(col)
            if not v:
                continue
            if pv != 1:
                for j in r:
                    r[j] *= pv
            for j, pj in prow.items():
                old = r.get(j)
                if old is None:
                    w = -v * pj
                    if w:
                        r[j] = w
                        index[j].append(i)
                else:
                    w = old - v * pj
                    if w:
                        r[j] = w
                    else:
                        del r[j]
            if r:
                _gcd_reduce_dict(r)
            else:
                active[i] = None
                live -= 1
    return pivot_cols, pivot_rows
