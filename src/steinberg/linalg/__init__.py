"""Exact sparse linear algebra over the rationals and integers.

A matrix is an immutable tuple of sparse rows, one {col: value} dict per
row.  A value is an int, and a Fraction only where it is not integral, so
the integer matrices met in practice (boundaries, action matrices) are
integer rows throughout.  Elimination runs in one integer kernel
(_core_py.echelon) with a fixed pivot rule, so everything downstream is
deterministic: same inputs, same outputs, bit for bit, on every run.
Smith forms and determinants are integer questions on dense rows, so they
live in lattices (snf_transform, integer_determinant) and are called
there directly.

A row that holds a Fraction is scaled to integers before elimination.
Scaling a row by a nonzero constant changes neither the rank nor the right
null space; kernel bases come from the integer echelon rows by
fraction-free back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

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


def _value(v):
    """An exact value as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable sparse rational matrix of shape rows x cols.

    row_dicts[i] maps each column of a nonzero entry of row i to its value:
    an int, or a Fraction only where the value is not integral.  The
    constructor validates and normalises once: it rejects columns out of
    range, drops zeros and turns integral values into ints.  Readers use
    the row dicts as they are and must not mutate them.  Empty matrices
    (zero rows and/or columns) are legal.
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
                v = _value(v)
                if v:
                    clean[j] = v
            out.append(clean)
        object.__setattr__(self, "row_dicts", tuple(out))


def _integer_row(row):
    """A fresh dict: the row times the least scale that makes it integral."""
    if all(type(v) is int for v in row.values()):
        return dict(row)
    scale = lcm(*(v.denominator for v in row.values()))
    return {j: v.numerator * (scale // v.denominator) for j, v in row.items()}


def _echelon(matrix: ExactMatrix):
    # The kernel reduces its rows in place, so it gets copies.
    rows = [_integer_row(row) for row in matrix.row_dicts]
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
    """Canonical basis of the right null space, as sparse supports.

    Returns one support per free column, in increasing column order: a
    tuple of the nonzero (column, value) pairs of the basis vector, in
    column order.  The vector is 1 at its free column and 0 at the other
    free columns, so coordinates in this basis can be read off directly;
    it is the basis the reduced row echelon form gives.  The free column
    is the last entry: the other entries sit at pivot columns to its
    left, since an echelon row holds only columns right of its pivot.
    Values are ints where integral, else Fractions.  Always satisfies
    M v = 0 exactly and len(result) == cols - rank(M).

    Each vector comes from fraction-free back-substitution on the integer
    echelon rows: it is kept as integers y over one common denominator, and
    a pivot row is solved only once a column it holds has become nonzero,
    bottom row first.
    """
    pivot_cols, pivot_rows = _echelon(matrix)
    # holders[c]: the pivot rows holding column c off their pivot.
    holders = [[] for _ in range(matrix.cols)]
    for r, (p, row) in enumerate(zip(pivot_cols, pivot_rows)):
        for j in row:
            if j != p:
                holders[j].append(r)
    pivot_set = set(pivot_cols)
    basis = []
    for f in range(matrix.cols):
        if f in pivot_set:
            continue
        y = {f: 1}
        den = 1
        heap = [-r for r in holders[f]]
        heapify(heap)
        queued = set(holders[f])
        while heap:
            r = -heappop(heap)
            p, row = pivot_cols[r], pivot_rows[r]
            s = -sum(v * y[j] for j, v in row.items() if j in y)
            if not s:
                continue
            a = row[p]
            g = gcd(s, a)
            s, a = s // g, a // g
            if a < 0:
                s, a = -s, -a
            if a != 1:
                for j in y:
                    y[j] *= a
                den *= a
            y[p] = s
            for k in holders[p]:
                if k not in queued:
                    queued.add(k)
                    heappush(heap, -k)
        basis.append(
            tuple((j, y[j] if den == 1 else _value(Fraction(y[j], den))) for j in sorted(y))
        )
    return tuple(basis)
