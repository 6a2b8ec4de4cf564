"""Integer lattice utilities built on Smith reduction with transforms.

Everything here is exact integer arithmetic.  The workhorse is
snf_transform, which reduces an integer matrix M to diagonal Smith form S
while maintaining unimodular U and Vinv with U @ M == S @ Vinv, in one
pivot loop per diagonal position.  It is the library's only Smith
reduction: flags.completion_witness reuses its U on a single column to
gather a gcd.  The rows of Vinv give a canonical answer to the lattice
question the flag machinery asks: completion of a saturated set to a
basis of Z^n.
Saturation (primitivity) of a spanning set reads only the invariant
factors, and a square input needs none of the Smith data: it is a basis
of Z^n exactly when integer_determinant, a fraction-free Bareiss
elimination, gives +-1.  That elimination is the library's only
determinant loop.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SmithTransform:
    """Smith data: diagonal, factors (nonzero part), and transforms.

    Satisfies U @ M == S @ Vinv with S diagonal, and U and Vinv unimodular.
    """

    diagonal: tuple
    U: tuple
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

    This is the library's only Smith reduction, one loop per diagonal
    position t.  Each pass picks the smallest |entry| of the remaining
    block, ties by lowest (row, col), moves it to (t, t) with a positive
    sign, and reduces its column and its row by floor division.  A nonzero
    remainder, or else a block entry the pivot does not divide (whose row
    is then added to row t, leaving a remainder in row t), sends the loop
    back to pick again, and the new pivot is strictly smaller, so the
    loop terminates.  Otherwise t advances.  The diagonal entries are
    nonnegative and each nonzero one divides the next.

    Returns U and Vinv with U @ M == S @ Vinv.  Each row operation on the
    working copy W of M is applied to U, and each column operation
    W -> W E to Vinv as Vinv -> E^-1 Vinv, so U @ M == W @ Vinv holds
    throughout and W ends as S.  The inverse of Vinv is never formed.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    U = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    Vinv = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < nrows and t < ncols:
        bi = bj = -1
        bv = 0
        for i in range(t, nrows):
            row = m[i]
            for j in range(t, ncols):
                v = row[j]
                if v:
                    a = -v if v < 0 else v
                    if bi < 0 or a < bv:
                        bi, bj, bv = i, j, a
        if bi < 0:
            break
        m[t], m[bi] = m[bi], m[t]
        U[t], U[bi] = U[bi], U[t]
        if bj != t:
            for row in m:
                row[t], row[bj] = row[bj], row[t]
            Vinv[t], Vinv[bj] = Vinv[bj], Vinv[t]
        if m[t][t] < 0:
            m[t] = [-v for v in m[t]]
            U[t] = [-v for v in U[t]]
        top, utop, p = m[t], U[t], m[t][t]
        left = False
        for i in range(t + 1, nrows):
            q = m[i][t] // p
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], top)]
                U[i] = [a - q * b for a, b in zip(U[i], utop)]
            left = left or m[i][t] != 0
        for j in range(t + 1, ncols):
            q = top[j] // p
            if q:
                for row in m:
                    row[j] -= q * row[t]
                Vinv[t] = [a + q * b for a, b in zip(Vinv[t], Vinv[j])]
            left = left or top[j] != 0
        if left:
            continue
        for i in range(t + 1, nrows):
            if any(v % p for v in m[i][t + 1:]):
                m[t] = [a + b for a, b in zip(top, m[i])]
                U[t] = [a + b for a, b in zip(utop, U[i])]
                break
        else:
            t += 1
    diag = tuple(m[i][i] for i in range(min(nrows, ncols)))
    return SmithTransform(diag, tuple(tuple(r) for r in U), tuple(tuple(r) for r in Vinv))


def integer_determinant(rows):
    """Determinant of a square integer matrix, by Bareiss elimination.

    Args:
        rows: dense integer rows (list of lists); not modified.

    Exact integer steps (Bareiss, Math. Comp. 22, 1968): each step divides
    exactly by the previous pivot, so every intermediate entry is a minor
    of the input and stays an integer.  The empty matrix has determinant
    1, and a matrix whose pivot search fails gives 0.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k]
        p = pivot[k]
        for i in range(k + 1, n):
            row = m[i]
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - a * pivot[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


def is_saturated(rows) -> bool:
    """True when the rows span a direct summand of Z^n of rank len(rows).

    Equivalent to: full row rank and all Smith invariant factors equal 1.
    A square input is decided by |det| == 1 (integer_determinant), with no
    transforms; any other shape reads the factors from snf_transform.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return True
    if len(rows) == len(rows[0]):
        return abs(integer_determinant(rows)) == 1
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
    # Row lattice of M equals the lattice of the first k rows of Vinv when
    # all invariant factors are 1, so the remaining rows of Vinv complete it.
    return [list(st.Vinv[i]) for i in range(k, n)]
