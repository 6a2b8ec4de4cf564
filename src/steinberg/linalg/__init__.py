"""Exact sparse linear algebra over the rationals and integers.

Matrices are immutable sparse triplet collections with Fraction entries.
Elimination runs in one integer kernel (_core_py.echelon) with a fixed
pivot rule, so everything downstream is deterministic: same inputs, same
outputs, bit for bit, on every run.  Smith forms come from the one Smith
reduction in lattices.snf_transform.

Rational rows are scaled to integers before elimination.  Scaling a row by
a nonzero constant changes neither the rank nor the right null space, and
the rational reduced echelon form used for kernel bases is reconstructed
from the integer echelon rows afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import _core_py as _impl
from .lattices import snf_transform

__all__ = [
    "ExactMatrix",
    "backend",
    "rank",
    "kernel_basis",
    "smith_normal_form",
    "quotient_dim",
    "determinant",
    "matrix_to_json",
    "matrix_from_json",
]


def backend() -> str:
    """Name of the elimination kernel: always 'python'.

    Kept so that benchmark records can stamp which kernel produced them.
    """
    return _impl.BACKEND_NAME


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable sparse rational matrix.

    entries is a tuple of (row, col, Fraction) triplets sorted by (row,
    col); zero values and duplicate positions are rejected.  Empty matrices
    (zero rows and/or columns) are legal.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        seen = set()
        for i, j, v in self.entries:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry ({i},{j}) out of bounds")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry at ({i},{j})")
            if v == 0:
                raise ValueError(f"explicit zero stored at ({i},{j})")
            seen.add((i, j))

    @classmethod
    def from_entries(cls, rows, cols, items) -> "ExactMatrix":
        ents = tuple(
            sorted((int(i), int(j), Fraction(v)) for i, j, v in items if Fraction(v) != 0)
        )
        return cls(rows, cols, ents)

    @classmethod
    def from_dense(cls, dense) -> "ExactMatrix":
        dense = [list(r) for r in dense]
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        items = []
        for i, r in enumerate(dense):
            if len(r) != cols:
                raise ValueError("ragged dense input")
            for j, v in enumerate(r):
                if v:
                    items.append((i, j, v))
        return cls.from_entries(rows, cols, items)

    @classmethod
    def from_rows(cls, vectors, cols=None) -> "ExactMatrix":
        """Matrix whose rows are the given vectors."""
        vectors = [tuple(v) for v in vectors]
        if cols is None:
            if not vectors:
                raise ValueError("cols required for an empty row list")
            cols = len(vectors[0])
        return cls.from_dense(vectors) if vectors else cls(0, cols, ())

    @classmethod
    def from_columns(cls, vectors, rows=None) -> "ExactMatrix":
        vectors = [tuple(v) for v in vectors]
        if rows is None:
            if not vectors:
                raise ValueError("rows required for an empty column list")
            rows = len(vectors[0])
        items = []
        for j, v in enumerate(vectors):
            if len(v) != rows:
                raise ValueError("ragged column input")
            for i, x in enumerate(v):
                if x:
                    items.append((i, j, x))
        return cls.from_entries(rows, len(vectors), items)

    @classmethod
    def identity(cls, n) -> "ExactMatrix":
        return cls.from_entries(n, n, [(i, i, 1) for i in range(n)])

    @classmethod
    def zero(cls, rows, cols) -> "ExactMatrix":
        return cls(rows, cols, ())

    def to_dense(self):
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for i, j, v in self.entries:
            out[i][j] = v
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.from_entries(
            self.cols, self.rows, [(j, i, v) for i, j, v in self.entries]
        )

    def row_dicts(self):
        out = [dict() for _ in range(self.rows)]
        for i, j, v in self.entries:
            out[i][j] = v
        return out

    def nnz(self) -> int:
        return len(self.entries)

    def is_integer(self) -> bool:
        return all(v.denominator == 1 for _, _, v in self.entries)

    def mul_vector(self, vec):
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [Fraction(0)] * self.rows
        for i, j, v in self.entries:
            if vec[j]:
                out[i] += v * vec[j]
        return tuple(out)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        other_rows = other.row_dicts()
        acc = {}
        for i, k, v in self.entries:
            for j, w in other_rows[k].items():
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        return ExactMatrix.from_entries(
            self.rows, other.cols, [(i, j, v) for (i, j), v in acc.items() if v]
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        acc = {(i, j): v for i, j, v in self.entries}
        for i, j, v in other.entries:
            acc[(i, j)] = acc.get((i, j), 0) + v
        return ExactMatrix.from_entries(
            self.rows, self.cols, [(i, j, v) for (i, j), v in acc.items() if v]
        )

    def scale(self, c) -> "ExactMatrix":
        c = Fraction(c)
        if c == 0:
            return ExactMatrix.zero(self.rows, self.cols)
        return ExactMatrix.from_entries(
            self.rows, self.cols, [(i, j, v * c) for i, j, v in self.entries]
        )

    def is_zero(self) -> bool:
        return not self.entries


def _scaled_integer_rows(matrix: ExactMatrix):
    """Per-row integer dicts with denominators cleared row by row."""
    out = []
    for row in matrix.row_dicts():
        if not row:
            out.append({})
            continue
        scale = 1
        for v in row.values():
            scale = _lcm(scale, v.denominator)
        out.append({j: int(v * scale) for j, v in row.items()})
    return out


def _echelon(matrix: ExactMatrix):
    rows = _scaled_integer_rows(matrix)
    return _impl.echelon(matrix.rows, matrix.cols, rows)


def rank(matrix: ExactMatrix) -> int:
    """Rank over the rationals."""
    pivot_cols, _ = _echelon(matrix)
    return len(pivot_cols)


def _rref(matrix: ExactMatrix):
    """Reduced row echelon form as (pivot_cols, rows of Fraction dicts)."""
    pivot_cols, pivot_rows = _echelon(matrix)
    rows = []
    for col, row in zip(pivot_cols, pivot_rows):
        p = Fraction(row[col])
        rows.append({j: Fraction(v) / p for j, v in row.items()})
    # Clear later pivot columns from earlier rows, bottom up.
    for i in range(len(rows) - 2, -1, -1):
        ri = rows[i]
        for k in range(i + 1, len(rows)):
            c = pivot_cols[k]
            coeff = ri.get(c)
            if coeff:
                for j, v in rows[k].items():
                    w = ri.get(j, Fraction(0)) - coeff * v
                    if w:
                        ri[j] = w
                    elif j in ri:
                        del ri[j]
    return pivot_cols, rows


def kernel_basis(matrix: ExactMatrix):
    """Canonical basis of the right null space.

    Returns a tuple of Fraction tuples, one per free column in increasing
    column order.  Each vector has entry 1 at its free column and 0 at the
    other free columns, so coordinates in this basis can be read off
    directly.  Always satisfies M v = 0 exactly and
    len(result) == cols - rank(M).
    """
    pivot_cols, rows = _rref(matrix)
    pivot_set = set(pivot_cols)
    free_cols = [j for j in range(matrix.cols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        vec = [Fraction(0)] * matrix.cols
        vec[f] = Fraction(1)
        for c, row in zip(pivot_cols, rows):
            coeff = row.get(f)
            if coeff:
                vec[c] = -coeff
        basis.append(tuple(vec))
    return tuple(basis)


def smith_normal_form(matrix: ExactMatrix):
    """Nonzero invariant factors (d_1 | d_2 | ...) of an integer matrix.

    Raises ValueError on non-integer entries.
    """
    if not matrix.is_integer():
        raise ValueError("Smith normal form requires integer entries")
    rows = [[0] * matrix.cols for _ in range(matrix.rows)]
    for i, j, v in matrix.entries:
        rows[i][j] = int(v)
    return snf_transform(rows).factors


def quotient_dim(span_vectors, sub_vectors) -> int:
    """Dimension of span(span_vectors) / span(sub_vectors) over Q.

    Raises ValueError if some sub vector lies outside the ambient span.
    """
    span_vectors = [tuple(v) for v in span_vectors]
    sub_vectors = [tuple(v) for v in sub_vectors]
    if not span_vectors and not sub_vectors:
        return 0
    width = len(span_vectors[0]) if span_vectors else len(sub_vectors[0])
    if any(len(v) != width for v in span_vectors + sub_vectors):
        raise ValueError("mixed vector lengths")
    span_m = ExactMatrix.from_rows(span_vectors, cols=width)
    sub_m = ExactMatrix.from_rows(sub_vectors, cols=width)
    r_span = rank(span_m)
    r_sub = rank(sub_m)
    both = ExactMatrix.from_rows(span_vectors + sub_vectors, cols=width)
    if rank(both) != r_span:
        raise ValueError("subspace vectors do not lie in the ambient span")
    return r_span - r_sub


def determinant(matrix: ExactMatrix) -> Fraction:
    """Exact determinant (square matrices), via fraction-free elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.rows
    if n == 0:
        return Fraction(1)
    dense = matrix.to_dense()
    scale = Fraction(1)
    m = []
    for row in dense:
        s = 1
        for v in row:
            s = _lcm(s, v.denominator)
        scale *= s
        m.append([int(v * s) for v in row])
    # Bareiss: exact division by the previous pivot.
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1]) / scale


def matrix_to_json(matrix: ExactMatrix) -> str:
    """Serialize to the exchange format {rows, cols, entries:[[i,j,"p/q"]..]}.

    Values are exact decimal fraction strings; no floats anywhere.
    """
    payload = {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [[i, j, str(v)] for i, j, v in matrix.entries],
    }
    return json.dumps(payload)


def matrix_from_json(text: str) -> ExactMatrix:
    payload = json.loads(text)
    if not isinstance(payload.get("rows"), int) or not isinstance(payload.get("cols"), int):
        raise ValueError("matrix JSON needs integer rows/cols")
    items = []
    for ent in payload.get("entries", []):
        i, j, val = ent
        if not isinstance(val, str):
            raise ValueError("matrix JSON entries must be fraction strings")
        items.append((i, j, Fraction(val)))
    return ExactMatrix.from_entries(payload["rows"], payload["cols"], items)
