"""The exact integer elimination kernel behind steinberg.linalg.

The kernel works over arbitrary-precision integers.  Rational input is
scaled row-wise to integers by the caller (row scaling does not change
ranks, row spaces up to scale, or null spaces).

Conventions:

* A sparse row is a dict mapping column index to a nonzero int.
* `echelon` processes columns left to right.  The pivot row for a column is
  the active row with the fewest nonzeros, ties broken by smallest absolute
  pivot entry, then by position in the current active list.  Updates use the
  cross-multiplication rule new = pivot_entry * row - row_entry * pivot_row
  followed by division of the row by the gcd of its entries, which keeps
  entry growth controlled without leaving exact integer arithmetic.
* When fill-in exceeds half of the active block the kernel switches to a
  dense row representation and continues with the same pivot rule, so the
  output does not depend on the switch point.
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


def _gcd_reduce_list(row, start):
    g = 0
    for j in range(start, len(row)):
        v = row[j]
        if v:
            g = gcd(g, v)
            if g == 1:
                return row
    if g > 1:
        for j in range(start, len(row)):
            if row[j]:
                row[j] //= g
    return row


def echelon(nrows, ncols, rows):
    """Reduce integer rows to (unnormalized) row echelon form.

    Args:
        nrows: number of rows of the matrix (unused except for sanity).
        ncols: number of columns.
        rows: iterable of sparse rows ({col: int}); consumed by copy.

    Returns:
        (pivot_cols, pivot_rows): pivot columns in increasing order and the
        corresponding eliminated rows as sparse dicts.  len(pivot_cols) is
        the rank.  Each pivot row has its leading nonzero at its pivot
        column and support strictly to the right elsewhere; rows are
        gcd-reduced but not sign- or pivot-normalized.
    """
    active = []
    nnzs = []
    for r in rows:
        if r:
            d = dict(r)
            active.append(d)
            nnzs.append(len(d))
    dense = False
    pivot_cols = []
    pivot_rows = []
    total = sum(nnzs)
    for col in range(ncols):
        if not active:
            break
        # Deterministic pivot choice: fewest nonzeros, then smallest
        # |entry|, then first in current order.
        best = -1
        bnnz = 0
        babs = 0
        for i in range(len(active)):
            if dense:
                v = active[i][col]
            else:
                v = active[i].get(col, 0)
            if v:
                a = -v if v < 0 else v
                if best < 0 or (nnzs[i], a) < (bnnz, babs):
                    best = i
                    bnnz = nnzs[i]
                    babs = a
        if best < 0:
            continue
        prow = active.pop(best)
        pn = nnzs.pop(best)
        total -= pn
        pv = prow[col]
        pivot_cols.append(col)
        if dense:
            pivot_rows.append({j: prow[j] for j in range(col, ncols) if prow[j]})
        else:
            pivot_rows.append(prow)
        # Eliminate the pivot column from every remaining active row.
        for i in range(len(active)):
            r = active[i]
            if dense:
                v = r[col]
                if not v:
                    continue
                for j in range(col, ncols):
                    r[j] = pv * r[j] - v * prow[j]
                _gcd_reduce_list(r, col + 1)
                n = 0
                for j in range(col + 1, ncols):
                    if r[j]:
                        n += 1
                total += n - nnzs[i]
                nnzs[i] = n
            else:
                v = r.get(col, 0)
                if not v:
                    continue
                nd = {}
                for j, rv in r.items():
                    nd[j] = pv * rv
                for j, pj in prow.items():
                    w = nd.get(j, 0) - v * pj
                    if w:
                        nd[j] = w
                    elif j in nd:
                        del nd[j]
                _gcd_reduce_dict(nd)
                total += len(nd) - nnzs[i]
                active[i] = nd
                nnzs[i] = len(nd)
        # Drop rows that became zero.
        if dense:
            keep = [i for i in range(len(active)) if nnzs[i]]
        else:
            keep = [i for i in range(len(active)) if active[i]]
        if len(keep) != len(active):
            active = [active[i] for i in keep]
            nnzs = [nnzs[i] for i in keep]
        # Dense fallback once fill-in passes half of the active block.
        if not dense and active:
            width = ncols - col - 1
            if width > 0 and 2 * total > len(active) * width:
                dense = True
                conv = []
                for r in active:
                    row = [0] * ncols
                    for j, v in r.items():
                        row[j] = v
                    conv.append(row)
                active = conv
    return pivot_cols, pivot_rows

