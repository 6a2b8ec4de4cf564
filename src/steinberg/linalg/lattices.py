"""Integer lattice utilities built on Smith reduction with transforms.

Everything here is exact integer arithmetic.  The workhorse is
snf_transform, which reduces an integer matrix M to diagonal Smith form S
while maintaining unimodular U, V (and V^-1) with U @ M @ V == S.  From the
tracked inverse we get canonical answers to three lattice questions used by
the flag machinery: membership of a vector in a row lattice, saturation
(primitivity) of a spanning set, and completion of a saturated set to a
basis of Z^n.
"""

from __future__ import annotations

from dataclasses import dataclass


def _swap_rows(m, a, b):
    m[a], m[b] = m[b], m[a]


def _swap_cols(m, a, b):
    for row in m:
        row[a], row[b] = row[b], row[a]


@dataclass(frozen=True)
class SmithTransform:
    """Smith data: diagonal, factors (nonzero part), and transforms.

    Satisfies U @ M @ V == S (diagonal) and V @ Vinv == identity, with U and
    V unimodular.
    """

    nrows: int
    ncols: int
    diagonal: tuple
    U: tuple
    V: tuple
    Vinv: tuple

    @property
    def factors(self):
        return tuple(d for d in self.diagonal if d)

    @property
    def rank(self) -> int:
        return len(self.factors)


def snf_transform(rows) -> SmithTransform:
    """Smith normal form with unimodular transform tracking.

    Args:
        rows: dense integer rows (list of lists); not modified.

    This is the library's only Smith reduction.  Pivot choice is the
    minimal-|value| nonzero entry of the remaining block, ties by lowest
    (row, col).  Row/column elimination by integer division; a nonzero
    remainder becomes the new, strictly smaller pivot, so the loop
    terminates.  A final divisibility sweep folds any entry not divisible
    by the pivot into the pivot row and retries.  The diagonal entries are
    nonnegative and each nonzero one divides the next.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    U = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    Vinv = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < nrows and t < ncols:
        bi = bj = -1
        bv = 0
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = m[i][j]
                if v:
                    a = -v if v < 0 else v
                    if bi < 0 or a < bv:
                        bi, bj, bv = i, j, a
        if bi < 0:
            break
        if bi != t:
            _swap_rows(m, bi, t)
            _swap_rows(U, bi, t)
        if bj != t:
            _swap_cols(m, bj, t)
            _swap_cols(V, bj, t)
            _swap_rows(Vinv, bj, t)
        if m[t][t] < 0:
            m[t] = [-v for v in m[t]]
            U[t] = [-v for v in U[t]]
        while True:
            p = m[t][t]
            restart = False
            for i in range(t + 1, nrows):
                v = m[i][t]
                if v:
                    q = v // p
                    if q:
                        for j in range(ncols):
                            m[i][j] -= q * m[t][j]
                        for j in range(nrows):
                            U[i][j] -= q * U[t][j]
                    if m[i][t]:
                        _swap_rows(m, i, t)
                        _swap_rows(U, i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, ncols):
                v = m[t][j]
                if v:
                    q = v // p
                    if q:
                        for i in range(nrows):
                            m[i][j] -= q * m[i][t]
                        for i in range(ncols):
                            V[i][j] -= q * V[i][t]
                        for k in range(ncols):
                            Vinv[t][k] += q * Vinv[j][k]
                    if m[t][j]:
                        _swap_cols(m, j, t)
                        _swap_cols(V, j, t)
                        _swap_rows(Vinv, j, t)
                        restart = True
                        break
            if restart:
                continue
            p = m[t][t]
            fixed = True
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if m[i][j] % p:
                        for k in range(ncols):
                            m[t][k] += m[i][k]
                        for k in range(nrows):
                            U[t][k] += U[i][k]
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        t += 1
    diag = tuple(m[i][i] for i in range(min(nrows, ncols)))
    return SmithTransform(
        nrows,
        ncols,
        diag,
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in V),
        tuple(tuple(r) for r in Vinv),
    )


def solve_row_combination(basis_rows, target):
    """Integer x with x @ B == target, or None if no integer solution.

    B is the matrix whose rows are basis_rows (they need not be
    independent).  The returned x is one canonical solution.
    """
    basis_rows = [list(r) for r in basis_rows]
    target = list(target)
    if not basis_rows:
        return () if all(v == 0 for v in target) else None
    ncols = len(basis_rows[0])
    if len(target) != ncols:
        raise ValueError("target length mismatch")
    st = snf_transform(basis_rows)
    # x B = t  <=>  (x U^-1) S = t V, with S = U B V.
    w = [sum(target[i] * st.V[i][j] for i in range(ncols)) for j in range(ncols)]
    r = st.rank
    y = []
    for j in range(len(basis_rows)):
        if j < len(st.diagonal) and st.diagonal[j]:
            if w[j] % st.diagonal[j]:
                return None
            y.append(w[j] // st.diagonal[j])
        else:
            y.append(0)
    for j in range(r, ncols):
        if w[j]:
            return None
    nb = len(basis_rows)
    x = [sum(y[i] * st.U[i][j] for i in range(nb)) for j in range(nb)]
    return tuple(x)


def in_row_lattice(basis_rows, vector) -> bool:
    return solve_row_combination(basis_rows, vector) is not None


def is_saturated(rows) -> bool:
    """True when the rows span a direct summand of Z^n of rank len(rows).

    Equivalent to: full row rank and all Smith invariant factors equal 1.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return True
    st = snf_transform(rows)
    return st.rank == len(rows) and all(f == 1 for f in st.factors)


def complete_to_basis(rows, n):
    """Rows extending a saturated set to a basis of Z^n, or None.

    Returns a list of n - k integer vectors w such that rows + w form a
    basis of Z^n (determinant +-1).  None when the input is not a
    saturated independent set.
    """
    rows = [list(r) for r in rows]
    k = len(rows)
    if k == 0:
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if any(len(r) != n for r in rows):
        raise ValueError("row length mismatch")
    if k > n:
        return None
    st = snf_transform(rows)
    if st.rank != k or any(f != 1 for f in st.factors):
        return None
    # Row lattice of M equals the lattice of the first k rows of V^-1 when
    # all invariant factors are 1, so the remaining rows of V^-1 complete it.
    return [list(st.Vinv[i]) for i in range(k, n)]
