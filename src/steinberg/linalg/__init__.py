"""Exact sparse linear algebra over the integers.

A matrix is an immutable tuple of sparse rows, one {col: int} dict per
row.  Elimination runs in one integer kernel (_core_py.echelon) with a
fixed pivot rule, so everything downstream is deterministic: same inputs,
same outputs, bit for bit, on every run.  Smith forms and determinants are
integer questions on dense rows, so they live in lattices (snf_transform,
integer_determinant) and are called there directly.

A kernel basis comes from one back-elimination of the integer echelon
rows, bottom up, after which each row holds only its pivot and free
columns; the basis is the transpose of those rows.  It is certified
integral: back-elimination raises ValueError unless every reduced row has
pivot entry +-1, which is exactly when the reduced row echelon form, and
with it the basis, is integral.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _core_py as _impl

__all__ = [
    "ExactMatrix",
    "backend",
    "rank",
    "kernel_basis",
    "pivot_columns",
]


def backend() -> str:
    """Name of the elimination kernel: always 'python'.

    Kept so that benchmark records can stamp which kernel produced them.
    """
    return _impl.BACKEND_NAME


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable sparse integer matrix of shape rows x cols.

    row_dicts[i] maps each column of a nonzero entry of row i to its value,
    an int.  The constructor validates and normalises once: it rejects
    columns out of range and values that are not ints (bools included),
    and drops zeros.  Callers whose rows are clean by construction build
    through _from_clean_rows instead, which neither checks nor copies them;
    each such caller's docstring says why its rows are clean.  Readers use
    the row dicts as they are and must not mutate them, with one exception:
    complexes.eliminate_with_clearing builds the boundaries itself, and
    reduces the rows of those it eliminates in place before it releases
    them.
    Empty matrices (zero rows and/or columns) are legal.
    """

    rows: int
    cols: int
    row_dicts: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.row_dicts) != self.rows:
            raise ValueError("row count does not match the shape")
        out = []
        for i, row in enumerate(self.row_dicts):
            clean = {}
            for j, v in row.items():
                if not 0 <= j < self.cols:
                    raise ValueError(f"entry ({i},{j}) out of bounds")
                if type(v) is not int:
                    raise ValueError(f"entry ({i},{j}) is not an int")
                if v:
                    clean[j] = v
            out.append(clean)
        object.__setattr__(self, "row_dicts", tuple(out))

    @classmethod
    def _from_clean_rows(cls, cols, row_dicts) -> ExactMatrix:
        """A matrix over rows that are already normalised, taken as they are.

        Each row must map columns in range(cols) to nonzero ints; nothing
        here checks that.  The rows are not copied, so the caller hands
        them over.
        """
        out = object.__new__(cls)
        row_dicts = tuple(row_dicts)
        object.__setattr__(out, "rows", len(row_dicts))
        object.__setattr__(out, "cols", cols)
        object.__setattr__(out, "row_dicts", row_dicts)
        return out


def _echelon(matrix: ExactMatrix):
    # The kernel reduces its rows in place, so it gets copies.
    rows = [dict(row) for row in matrix.row_dicts]
    return _impl.echelon(matrix.rows, matrix.cols, rows)


def pivot_columns(ncols, rows) -> list:
    """Pivot columns, in increasing order, of integer rows over ncols columns.

    rows are sparse {col: int} dicts with no zero values.  The kernel
    reduces them in place, so the caller hands them over and must not use
    them afterwards; len(result) is the rank.
    """
    pivot_cols, _ = _impl.echelon(len(rows), ncols, rows)
    return pivot_cols


def rank(matrix: ExactMatrix) -> int:
    """Rank over the rationals."""
    pivot_cols, _ = _echelon(matrix)
    return len(pivot_cols)


def kernel_basis(matrix: ExactMatrix):
    """Canonical basis of the right null space, as sparse integer supports.

    Returns one support per free column, in increasing column order: a
    tuple of the nonzero (column, value) pairs of the basis vector, in
    column order.  The vector is 1 at its free column and 0 at the other
    free columns, so coordinates in this basis can be read off directly;
    it is the basis the reduced row echelon form gives.  The free column
    is the last entry: the other entries sit at pivot columns to its
    left, since an echelon row holds only columns right of its pivot.
    Values are ints.  Always satisfies M v = 0 exactly and len(result) ==
    cols - rank(M).  Raises ValueError when the reduced row echelon form
    is not integral, since the basis holds its entries negated.

    The integer echelon rows are back-eliminated (_back_eliminate) until
    each holds only its pivot and free columns: a times its reduced row
    echelon form row, for a = +-1.  The basis is then their transpose: the
    vector of free column f is -v * a at the pivot of each row holding v
    at f.  The rows are read top down, so each vector's entries arrive in
    column order, and each row is released once it is read.
    """
    pivot_cols, pivot_rows = _echelon(matrix)
    _back_eliminate(pivot_cols, pivot_rows)
    vectors = [[] for _ in range(matrix.cols)]
    for r, p in enumerate(pivot_cols):
        row = pivot_rows[r]
        pivot_rows[r] = None
        a = row.pop(p)
        # The entries +-1 share one tuple per row.
        one, minus_one = (p, 1), (p, -1)
        for f, v in row.items():
            if v == a:
                vectors[f].append(minus_one)
            elif v == -a:
                vectors[f].append(one)
            else:
                vectors[f].append((p, -v * a))
    pivot_set = set(pivot_cols)
    basis = []
    for f in range(matrix.cols):
        if f not in pivot_set:
            vector = vectors[f]
            vector.append((f, 1))
            basis.append(tuple(vector))
    return tuple(basis)


def _back_eliminate(pivot_cols, pivot_rows):
    """Reduce integer echelon rows, in place, to +-1 times the reduced form.

    pivot_cols and pivot_rows are the kernel's echelon output.  The rows
    are reduced bottom up.  A reduced row holds only its pivot column,
    with entry +-1, and free columns, so the pivot column c of a lower,
    already reduced row is cleared by row -= (row[c] * lower[c]) * lower.
    A step adds only free columns, so the columns to clear are listed
    before the first is cleared.  Each row is then divided by the gcd of
    its entries.  A primitive row divided by its pivot entry is integral
    only when that entry is +-1, so any other pivot entry raises
    ValueError naming its column: the reduced row echelon form is not
    integral there.
    """
    where = {c: r for r, c in enumerate(pivot_cols)}
    for r in range(len(pivot_rows) - 1, -1, -1):
        row = pivot_rows[r]
        p = pivot_cols[r]
        for c in [c for c in row if c != p and c in where]:
            lower = pivot_rows[where[c]]
            m = row[c] * lower[c]
            for j, w in lower.items():
                x = row.get(j, 0) - m * w
                if x:
                    row[j] = x
                else:
                    del row[j]
        _impl._gcd_reduce_dict(row)
        if abs(row[p]) != 1:
            raise ValueError(f"reduced row echelon form is not integral at pivot column {p}")
