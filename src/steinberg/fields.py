"""Finite field arithmetic for small q, with subspace canonicalization.

Elements are integers 0..q-1 whose base-p digits are the coefficients of
a polynomial over F_p, reduced modulo a fixed irreducible polynomial (x for
a prime field), so 0 and 1 are the field's 0 and 1.  Addition,
subtraction and multiplication are explicit q x q tables built from that
digit arithmetic, the same path for prime and prime-power q <= 9.  The
row kernels (rref, mat_vec) read those tables one row at a time: the row
mul[c] of a fixed scalar c, then sub[x] or add[x] per entry, with no
method call per entry.

Subspaces of F_q^n are canonicalized by reduced row echelon form: the RREF
basis of a subspace is unique, so equal subspaces get equal keys.  A line's
key rref(field, [v]) names the line through any nonzero v, so it indexes
the points of the projective space; it is v scaled by the inverse of its
first nonzero entry, which rref returns with no elimination loop.
Containment between subspaces is a test on lines
(complexes.tits_building): V is in W iff W contains the line of each of
V's RREF rows, with no elimination on the stacked keys.  The lines of W
are listed from its key alone: the rows after the first are the key of a
subspace one dimension down.
"""

from __future__ import annotations

# Irreducible polynomials used for the non-prime fields, low degree first:
# q=4: x^2+x+1 over F_2, q=8: x^3+x+1 over F_2, q=9: x^2+1 over F_3.
_IRREDUCIBLE = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (1, 0, 1)),
}

_PRIMES = {2, 3, 5, 7}


def _digits(x, p, length):
    out = []
    for _ in range(length):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds, p):
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


class FiniteField:
    """F_q for q prime in {2,3,5,7} or q in {4,8,9}.

    Every operation is a lookup in a table built once from the base-p
    digit arithmetic; a prime field is the degree-1 case F_p[x]/(x).
    """

    def __init__(self, q: int):
        if q in _PRIMES:
            p, poly = q, (0, 1)
        elif q in _IRREDUCIBLE:
            p, poly = _IRREDUCIBLE[q]
        else:
            raise ValueError(f"unsupported field size {q} (need a prime power <= 9)")
        self.q = q
        self.degree = len(poly) - 1
        self._build_tables(p, poly)

    def _build_tables(self, p, poly):
        deg = self.degree
        q = self.q
        digits = [_digits(a, p, deg) for a in range(q)]
        self._add = [
            [_undigits([(x + y) % p for x, y in zip(da, db)], p) for db in digits]
            for da in digits
        ]
        neg = [_undigits([(-x) % p for x in da], p) for da in digits]
        self._sub = [[self._add[a][neg[b]] for b in range(q)] for a in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a, da in enumerate(digits):
            for b, db in enumerate(digits):
                conv = [0] * (2 * deg - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            conv[i + j] = (conv[i + j] + x * y) % p
                # Reduce modulo the defining polynomial (monic, degree deg).
                for i in range(len(conv) - 1, deg - 1, -1):
                    c = conv[i]
                    if c:
                        conv[i] = 0
                        for j in range(deg):
                            conv[i - deg + j] = (conv[i - deg + j] - c * poly[j]) % p
                mul[a][b] = _undigits(conv[:deg], p)
        self._mul = mul
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                raise AssertionError("polynomial not irreducible")
        self._inv = inv

    def mul(self, a, b):
        return self._mul[a][b]

    def elements(self):
        return range(self.q)


_FIELD_CACHE: dict = {}


def finite_field(q: int) -> FiniteField:
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = FiniteField(q)
    return _FIELD_CACHE[q]


def mat_vec(field, m, v):
    """m v for a matrix m and a vector v over the field, as a tuple.

    Each entry v_j is read as its row of the multiplication table, so a
    term is one lookup there and one in the addition table.
    """
    add = field._add
    v_mul = [field._mul[b] for b in v]
    out = []
    for row in m:
        acc = 0
        for a, vm in zip(row, v_mul):
            if a:
                acc = add[acc][vm[a]]
        out.append(acc)
    return tuple(out)


def rref(field, rows):
    """Canonical reduced row echelon form; zero rows dropped.

    Returns a tuple of tuples.  RREF is unique per row space, so this is a
    canonical key for the subspace spanned by the input rows.  A pivot row
    is scaled through the multiplication-table row of its pivot's inverse,
    and row i is cleared through the table row of its entry c, one lookup
    in mul[c] and one in the subtraction table per entry.  A single row is
    the line's key: the row scaled by the inverse of its first nonzero
    entry, or () for the zero row.
    """
    work = [list(r) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("rows must share one length")
    mul, sub, inv = field._mul, field._sub, field._inv
    if len(work) == 1:
        row = work[0]
        for x in row:
            if x:
                scale = mul[inv[x]]
                return (tuple([scale[y] for y in row]),)
        return ()
    nrows = len(work)
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        scale = mul[inv[work[r][col]]]
        prow = work[r] = [scale[x] for x in work[r]]
        for i in range(nrows):
            c = work[i][col]
            if c and i != r:
                c_mul = mul[c]
                work[i] = [sub[x][c_mul[y]] for x, y in zip(work[i], prow)]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in work[:r])


def matrix_rank(field, rows) -> int:
    return len(rref(field, rows))


def is_invertible(field, m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and matrix_rank(field, m) == n


def all_subspaces(field, n, dim):
    """All dim-dimensional subspaces of F_q^n as RREF keys, lexicographic.

    Enumerates RREF matrices directly: choose pivot columns, then fill the
    free positions (entries right of each pivot in non-pivot columns) with
    arbitrary field elements.
    """
    from itertools import combinations, product

    out = []
    for pivots in combinations(range(n), dim):
        free_pos = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, n):
                if c not in pivots:
                    free_pos.append((r, c))
        for fill in product(field.elements(), repeat=len(free_pos)):
            m = [[0] * n for _ in range(dim)]
            for r, pc in enumerate(pivots):
                m[r][pc] = 1
            for (r, c), val in zip(free_pos, fill):
                m[r][c] = val
            out.append(tuple(tuple(row) for row in m))
    return out


def subspace_image(field, key, g):
    """Canonical key of g . V for a subspace key V and matrix g.

    Vectors are columns; a subspace stored as RREF rows r maps to the row
    space of r @ g^T, and (r @ g^T)_j = sum_k g_jk r_k = (g r)_j.
    """
    rows = [mat_vec(field, g, row) for row in key]
    return rref(field, rows)
