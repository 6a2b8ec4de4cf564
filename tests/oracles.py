"""Independent reference implementations for cross-checking the library.

Written from scratch against textbook definitions and sharing no code
with the package: Fraction-based Gaussian elimination, determinantal
divisor Smith forms, Leibniz determinants, a vectorized brute-force
search for the smallest unit of a real quadratic order, and class
numbers via Minkowski-bounded ideal enumeration (continued-fraction
cycle tags for real orders, bounded principality searches for imaginary
ones).  The one exception is probe_report_per_height, which rebuilds the
package's truncated B complex at every height, as probe_report once did,
to check the single build against.  action_levels maps every level of a
subspace-labelled complex under each generator, from a vertex map built
with rref_reference and mat_vec_reference, where the package's
group_action maps chambers only; dense_action_matrices takes its chamber
permutations from there and does everything else densely, on the
boundary of chain_complex_reference.  coordinates reads a top cycle's
coordinates in a Steinberg module's basis off the free columns, after its
own cycle check on that boundary.  is_cycle is the package's per-class
cycle check as it was before apartment classes were certified by counting
their distinct chambers: a boundary pass over the building's top face
lists.  unimodular_matrices is a Hypothesis strategy of matrices with
determinant +-1 by construction.
echelon_reference is the package's elimination kernel as it was before it
kept a column index (full row scans per column, dense-row switch), kept
here only to check that the indexed kernel returns exactly its output.
kernel_basis_reference is the package's kernel basis as it was before it
returned sparse supports: dense Fraction vectors read off the reduced row
echelon form, which is rebuilt in Fractions from echelon_reference.
primitive_rref_reference scales the rows of that same reduced form to
primitive integer rows, which the package's back-elimination must reach.
rref_reference and mat_vec_reference are the package's fields.rref and
fields.mat_vec as they were before they read the field's tables one row at
a time: one table lookup per operation and entry, and a single row run
through the elimination loop; the kernels must return exactly their
output.
tits_building_reference is the package's Tits building as it was before
containment was read off line incidences (pairwise RREF stacking), kept to
check that the new build lists the same labels and cells in the same
order; its faces come from the package's SemisimplicialSet, whose face
lists test_complexes checks against tuple slicing.  Those lists are stored
by position (faces[k][i][s], the index of simplex s with position i
dropped); simplex_faces reads one simplex's faces, in position order, for
the tests written against a face tuple per simplex.  contains_reference is
the reference's containment test, against which the line incidence that
the package's building keeps (point and above) is checked.
is_squarefree_reference is the package's squarefree test as it was before
it stopped trial division at the cube root: every odd f up to sqrt(|d|).
reduced_definite_forms_reference and reduced_indefinite_forms_reference
are the package's reduced-form enumerators as they were before they
walked b and then only the divisors the reduction bounds allow (every
pair |b| <= a for D < 0; trial division of (D - b^2)/4 from 1 for D > 0),
kept to check that the new enumeration returns the same sorted lists;
the indefinite one shares the package's exact reduction test.
class_group_reference is the package's class group as it was before it
counted forms instead of listing them: the sorted lists of both
enumerators above, every indefinite form (both signs of a) walked one
reduction step at a time, and one representative kept per cycle.
period_convergent_reference is the package's fold of a unit's period as
it was before the quotients were multiplied in a product tree: one
quotient at a time, quadratic in the period's length.
apartment_span_rank_reference is the package's apartment span rank as it
was before the Solomon-Tits basis certified it: one class per unordered
frame, built by the package's apartment_class, and the exact rank of all
of them by the package's elimination.  apartment_class_reference is the
package's apartment class as it was before its vertices were read from
the building's line incidence: each index subset's vertex is the
rref_reference key of the stacked frame rows, looked up among the labels,
and each ordering gives one flag, signed by its parity.
lines_complex_fq_reference and b_complex_truncated_reference are ordered
builders that extend every ordering by every vertex and test it on its
own (one rank test, or one completion_witness call, per ordering).  The
second is the package's basis complex as it was before each unordered set
was certified once, kept to check that the builder lists the same labels
and cells in the same order, and the same witness wherever a simplex's
index tuple is increasing; it shares the package's certification code.
The first is the only line complex left: the homology tests rank it, and
_ordered_simplices must list its cells in its order.
log_embedding_reference is the package's unit log embedding as it was
before it moved to the standard library's decimal module: mpmath at 50
digits, kept to check that the decimal version returns the same floats.
chain_complex_reference builds the augmentation and every boundary from
X.cells and X.index alone, dropping each position of each tuple, and
hands the rows to the validating ExactMatrix constructor, so it shares
neither the face lists nor the row filling of the package's
chain_complex.  reduced_homology_ranks_reference is the package's
homology as it was before it ranked the boundary rows with clearing: the
rank of every boundary of chain_complex_reference, all rows as built, by
the package's elimination.  coinvariants_dim_reference is the package's
coinvariant dimension as it was before the generators acting as signed
permutations were merged by a signed union-find: one relation row per
nonzero column of eps(g) g - 1 for every generator, ranked by the
package's elimination.  restrict_reference is the package's
TruncatedBComplex.restrict as it was before probe_report counted
components instead: the truncation at a smaller height read off one
build, kept as the reference for component_counts and to rank homology
at every height.  first_nonzero_composite is the check that the
package's chain complex ran before d∘d stopped being re-multiplied at run
time: the exact product of consecutive boundaries of the list that
chain_complex returns, kept to check that the face identities make every
composite zero.  euler_characteristic
is the reduced Euler characteristic, read off the cell counts; nothing in
the package needs it, so it lives here.  matrix_from_dense and
dense_of convert between dense lists and the package's sparse matrices
for the tests.  pair_power raises a + b sqrt(d), given by its integer
coordinates, to a power; the package's elements carry no arithmetic, so
the tests build large units with it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, isqrt

import numpy as np
from hypothesis import strategies as st


def matrix_from_dense(dense):
    """The package's ExactMatrix of a rectangular list of rows."""
    from steinberg.linalg import ExactMatrix

    dense = [list(r) for r in dense]
    cols = len(dense[0]) if dense else 0
    assert all(len(r) == cols for r in dense), "ragged dense input"
    return ExactMatrix(len(dense), cols, tuple({j: v for j, v in enumerate(r) if v} for r in dense))


def dense_of(matrix):
    """The rows of an ExactMatrix as dense lists, zeros filled in."""
    out = [[0] * matrix.cols for _ in range(matrix.rows)]
    for i, row in enumerate(matrix.row_dicts):
        for j, v in row.items():
            out[i][j] = v
    return out


def rank_fraction(rows) -> int:
    """Row reduce over Fraction, first-nonzero pivoting."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def nullspace_fraction(rows, ncols):
    """Kernel basis via full RREF; one vector per free column."""
    mat = [[Fraction(x) for x in r] for r in rows if any(r)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            vec[pc] = -mat[rr][fc]
        basis.append(tuple(vec))
    return basis


def det_leibniz(rows) -> Fraction:
    """Signed permutation expansion; fine for n <= 6."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += term
    return total


def invariant_factors_minors(rows):
    """Smith invariant factors from gcds of k x k minors (small inputs)."""
    m, n = len(rows), len(rows[0]) if rows else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, int(det_leibniz(sub)))
        if g == 0:
            break
        divisors.append(g)
    return tuple(
        divisors[k] // divisors[k - 1] for k in range(1, len(divisors))
    )


def unimodular_matrices(n, seed_ints):
    """n x n integer matrices with determinant +-1, one per drawn seed.

    Each is a permuted identity with six random shears applied, so the
    determinant is +-1 by construction.
    """

    def build(seed):
        rng = random.Random(seed)
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rng.shuffle(m)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.randint(-3, 3)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        return m

    return st.builds(build, seed_ints)


def gaussian_binomial(n, k, q) -> int:
    """Number of k-dimensional subspaces of an n-space over F_q."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def flag_count(n, q, dims) -> int:
    """Number of subspace chains with the given strictly increasing dims."""
    total = 1
    upper = n
    for dim in sorted(dims, reverse=True):
        total *= gaussian_binomial(upper, dim, q)
        upper = dim
    return total


def pell_min_unit_search(d, cap=300_000, batch=50_000):
    """Smallest unit > 1 of the quadratic order of d by direct search.

    Scans the sqrt coefficient q upward and tests p^2 = d q^2 +- t^2 for
    perfect squares (t = 2 exactly when d = 1 mod 4, with p = q mod 2).
    Returns {"a", "b", "denom", "norm"} or None if nothing shows up by
    the cap; the smallest q wins, and at equal q the norm -1 solution is
    smaller.
    """
    t = 2 if d % 4 == 1 else 1
    tt = t * t
    for start in range(1, cap + 1, batch):
        stop = min(start + batch, cap + 1)
        qs = np.arange(start, stop, dtype=np.int64)
        base = d * qs * qs
        found = []
        for sgn in (-1, 1):
            vals = base + sgn * tt
            ok = vals > 0
            roots = np.sqrt(vals.astype(np.float64), where=ok, out=np.zeros_like(vals, dtype=np.float64)).astype(np.int64)
            for delta in (-1, 0, 1):
                cand = roots + delta
                hits = ok & (cand >= 0) & (cand * cand == vals)
                for idx in np.nonzero(hits)[0]:
                    p = int(cand[idx])
                    q = int(qs[idx])
                    if t == 2 and (p - q) % 2 != 0:
                        continue
                    found.append((q, p, sgn))
        if found:
            q, p, sgn = min(found)
            return {"a": p, "b": q, "denom": t, "norm": sgn}
    return None


def pair_power(d, a, b, k):
    """(x, y) with x + y sqrt(d) = (a + b sqrt(d))^k, k >= 0, by squaring."""
    x, y = 1, 0
    while k:
        if k & 1:
            x, y = x * a + d * y * b, x * b + y * a
        a, b = a * a + d * b * b, 2 * a * b
        k >>= 1
    return x, y


def _omega_params(d):
    """(trace, norm, discriminant) of the module generator omega."""
    if d % 4 == 1:
        return 1, (1 - d) // 4, d
    return 0, -d, 4 * d


def enumerate_ideals(d):
    """Primitive ideals (a, b) = aZ + (b + omega)Z within the class bound.

    Every ideal class contains one of these; extra ideals past the exact
    bound are harmless for counting classes.
    """
    t, nw, D = _omega_params(d)
    if D > 0:
        a_max = math.isqrt(D) // 2 + 1
    else:
        a_max = int(2 * math.sqrt(abs(D)) / math.pi) + 2
    out = []
    for a in range(1, a_max + 1):
        for b in range(a):
            if (b * b + t * b + nw) % a == 0:
                out.append((a, b))
    return out


def conjugate_ideal(d, ideal):
    t, _, _ = _omega_params(d)
    a, b = ideal
    return (a, (-b - t) % a)


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    return old_r, old_s, old_t


def ideal_product(d, one, two):
    """Product of primitive ideals in (g, a, b) form via a 2-column HNF."""
    t, nw, _ = _omega_params(d)
    a1, b1 = one
    a2, b2 = two
    gens = [
        (a1 * a2, 0),
        (a1 * b2, a1),
        (b1 * a2, a2),
        (b1 * b2 - nw, b1 + b2 + t),
    ]
    vx, vy = 0, 0
    for x, y in gens:
        if y == 0:
            continue
        if vy == 0:
            vx, vy = x, y
        else:
            g, s, u = _ext_gcd(vy, y)
            vx, vy = s * vx + u * x, g
    if vy < 0:
        vx, vy = -vx, -vy
    assert vy > 0, "product lost its omega component"
    alpha = 0
    for x, y in gens:
        assert y % vy == 0
        alpha = math.gcd(alpha, x - (y // vy) * vx)
    assert alpha > 0, "product has no integer part"
    assert alpha % vy == 0 and vx % vy == 0, "product is not an ideal"
    g = vy
    a = alpha // vy
    b = (vx // vy) % a
    return g, a, b


def _floor_surd(P, Q, sD):
    if Q > 0:
        return (P + sD) // Q
    return -((P + sD) // (-Q)) - 1


def surd_cycle_tag(d, ideal, cap=100_000):
    """Canonical tag of the continued-fraction cycle of (b + omega)/a.

    Two ideals of a real order lie in the same (wide) class exactly when
    their surds share an eventual continued-fraction cycle; the tag is
    the lexicographically least (Q, P) state on that cycle.
    """
    t, _, D = _omega_params(d)
    assert D > 0
    sD = math.isqrt(D)
    assert sD * sD != D
    a, b = ideal
    P, Q = 2 * b + t, 2 * a
    seen = {}
    for step in range(cap):
        if (P, Q) in seen:
            cycle_start = seen[(P, Q)]
            states = [s for s, i in seen.items() if i >= cycle_start]
            return min((q, p) for p, q in states)
        seen[(P, Q)] = step
        m = _floor_surd(P, Q, sD)
        P2 = m * Q - P
        assert (D - P2 * P2) % Q == 0
        P, Q = P2, (D - P2 * P2) // Q
    raise AssertionError("continued fraction failed to cycle")


def is_principal_imaginary(d, ideal):
    """Bounded search for a generator; exact for definite norm forms."""
    t, nw, D = _omega_params(d)
    assert D < 0
    a, b = ideal
    y = 0
    while abs(D) * y * y <= 4 * a:
        disc = D * y * y + 4 * a
        s = math.isqrt(disc)
        if s * s == disc:
            for x2 in (-t * y + s, -t * y - s):
                if x2 % 2 == 0:
                    x = x2 // 2
                    if (x - y * b) % a == 0 and x * x + t * x * y + nw * y * y == a:
                        return True
        y += 1
    return False


def class_number_by_ideals(d) -> int:
    """Wide class number by classifying the Minkowski-bounded ideals."""
    _, _, D = _omega_params(d)
    ideals = enumerate_ideals(d)
    if D > 0:
        tags = {surd_cycle_tag(d, ideal) for ideal in ideals}
        return len(tags)
    parent = {ideal: ideal for ideal in ideals}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, one in enumerate(ideals):
        for two in ideals[i + 1 :]:
            if find(one) == find(two):
                continue
            _, a, b = ideal_product(d, one, conjugate_ideal(d, two))
            if is_principal_imaginary(d, (a, b)):
                parent[find(one)] = find(two)
    return len({find(ideal) for ideal in ideals})


def matmod(x, y, p):
    n = len(x)
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def mulclose(gens, p, cap=100_000):
    """Closure of integer matrices under multiplication mod a prime p."""
    gens = [tuple(tuple(v % p for v in row) for row in g) for g in gens]
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = matmod(m, g, p)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > cap:
                        raise AssertionError("closure exceeded cap")
        frontier = nxt
    return seen


def action_levels(X, q, gens):
    """levels[g][k][s]: the index of the image of k-simplex s under generator g.

    Each vertex label, a tuple of RREF rows, maps to the RREF of its rows'
    images g v; a simplex maps vertex by vertex.  Entries are reduced mod
    q for prime q; for q in {4, 8, 9} they must be the element codes
    0..q-1, and any other entry raises ValueError.  Raises KeyError if an
    image is not in X.
    """
    from steinberg import fields as ff

    field = ff.finite_field(q)
    out = []
    for g in gens:
        if field.degree > 1 and any(not 0 <= x < q for row in g for x in row):
            raise ValueError(f"generator entries over F_{q} must be the codes 0..{q - 1}")
        g = [[x % q for x in row] for row in g]
        vmap = [
            X.label_index[rref_reference(field, [mat_vec_reference(field, g, v) for v in lbl])]
            for lbl in X.labels
        ]
        out.append(
            tuple(
                tuple(X.index[k][tuple(vmap[v] for v in s)] for s in cells)
                for k, cells in enumerate(X.cells)
            )
        )
    return out


def is_cycle(module, chain) -> bool:
    """Whether a top chain {column: value} has zero boundary, over Z.

    Face i enters with sign (-1)^i; in degree 0 the boundary is the sum.
    The building's top faces are stored by position, so the chain is read
    once per position i, through the list of i-th faces.
    """
    if module.top == 0:
        return sum(chain.values()) == 0
    acc = {}
    for i, col in enumerate(module.building.faces[module.top]):
        sign = -1 if i % 2 else 1
        for s, v in chain.items():
            f = col[s]
            acc[f] = acc.get(f, 0) + sign * v
    return not any(acc.values())


def coordinates(module, chain):
    """Coordinates {basis index: value} of a top cycle {column: value}.

    Raises ValueError unless every column is an int index of a top simplex
    and the top boundary of chain_complex_reference kills the chain.  Basis
    cycle j is 1 at its free column, the last entry of its support, and
    every other basis cycle is 0 there, so a cycle's coordinates are its
    values at the free columns.
    """
    boundary = chain_complex_reference(module.building)[module.top]
    if not all(type(s) is int and 0 <= s < boundary.cols for s in chain):
        raise ValueError(f"chain columns must lie in range({boundary.cols})")
    if any(sum(v * chain.get(s, 0) for s, v in row.items()) for row in boundary.row_dicts):
        raise ValueError("chain is not in the cycle space")
    free = [support[-1][0] for support in module.supports]
    return {j: chain[s] for j, s in enumerate(free) if s in chain}


def dense_action_matrices(module, gens):
    """Steinberg action matrices by dense Fraction reconstruction.

    The canonical RREF kernel basis of the dense top boundary, its
    coordinate columns found by scanning every column of every basis
    vector, and each basis cycle permuted by action_levels' chamber map,
    rebuilt densely from its coordinates and compared entry by entry with
    itself.  Returns one dense matrix (list of Fraction rows,
    basis-coordinate columns) per generator.
    """
    top = module.top
    boundary = chain_complex_reference(module.building)[top]
    dense = [[Fraction(0)] * boundary.cols for _ in range(boundary.rows)]
    for i, row in enumerate(boundary.row_dicts):
        for j, v in row.items():
            dense[i][j] = Fraction(v)
    basis = nullspace_fraction(dense, boundary.cols)
    free_cols = [
        next(
            i
            for i, v in enumerate(vec)
            if v == 1 and all(basis[k][i] == 0 for k in range(len(basis)) if k != j)
        )
        for j, vec in enumerate(basis)
    ]
    mats = []
    for levels in action_levels(module.building, module.q, gens):
        perm = levels[top]
        cols = []
        for bvec in basis:
            image = [Fraction(0)] * len(bvec)
            for s, v in enumerate(bvec):
                if v:
                    image[perm[s]] = v
            coords = [image[f] for f in free_cols]
            recon = [Fraction(0)] * len(image)
            for c, vec in zip(coords, basis):
                if c:
                    for i, v in enumerate(vec):
                        if v:
                            recon[i] += c * v
            if recon != image:
                raise ValueError("chain is not in the cycle space")
            cols.append(coords)
        mats.append([list(row) for row in zip(*cols)])
    return mats


def probe_report_per_height(n, m, height):
    """probe_report by building and certifying every truncation 1..height.

    Each height gets its own b_complex_truncated and a full connectivity
    probe; the ranks are those of the last height.
    """
    from steinberg.complexes import reduced_homology_ranks
    from steinberg.flags import b_complex_truncated

    ranks = []
    minimal_connected = None
    for h in range(1, height + 1):
        bx = b_complex_truncated(n, m, h)
        if n >= 2:
            homology = reduced_homology_ranks(bx.complex)
            ranks = [homology.get(k, 0) for k in range(n - 1)]
            if minimal_connected is None and ranks[0] == 0:
                minimal_connected = h
    return {
        "n": n,
        "m": m,
        "H": height,
        "ranks": ranks,
        "witnesses_failed": 0,
        "minimal_connected_H": minimal_connected,
    }


def _ref_gcd_reduce_dict(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _ref_gcd_reduce_list(row, start):
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


def echelon_reference(nrows, ncols, rows):
    """The elimination kernel as it was before its column index, verbatim.

    It scans every active row for every column and switches to dense rows
    once fill-in passes half of the active block; the pivot rule is the
    library's (fewest nonzeros, smallest |entry|, first in row order), so
    steinberg.linalg._core_py.echelon must return exactly its output.

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
                _ref_gcd_reduce_list(r, col + 1)
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
                _ref_gcd_reduce_dict(nd)
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


def _ref_scaled_integer_rows(matrix):
    """Per-row integer dicts with denominators cleared row by row."""
    out = []
    for row in matrix.row_dicts:
        if not row:
            out.append({})
            continue
        scale = 1
        for v in row.values():
            scale = math.lcm(scale, Fraction(v).denominator)
        out.append({j: int(v * scale) for j, v in row.items()})
    return out


def _ref_rref(matrix):
    """Reduced row echelon form as (pivot_cols, rows of Fraction dicts)."""
    pivot_cols, pivot_rows = echelon_reference(
        matrix.rows, matrix.cols, _ref_scaled_integer_rows(matrix)
    )
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


def free_columns_reference(matrix):
    """Non-pivot columns of the reduced row echelon form, increasing."""
    pivot_set = set(_ref_rref(matrix)[0])
    return [j for j in range(matrix.cols) if j not in pivot_set]


def primitive_rref_reference(matrix):
    """Pivot columns and reduced row echelon rows scaled to primitive integers.

    Each row of the reduced row echelon form is multiplied by the least
    common denominator of its entries and divided by their gcd, so it is
    the primitive integer row on its line with a positive pivot entry.
    """
    pivot_cols, rows = _ref_rref(matrix)
    out = []
    for row in rows:
        scale = math.lcm(*(v.denominator for v in row.values()))
        ints = {j: v.numerator * (scale // v.denominator) for j, v in row.items()}
        g = gcd(*ints.values())
        out.append({j: v // g for j, v in ints.items()})
    return pivot_cols, out


def kernel_basis_reference(matrix):
    """Canonical basis of the right null space, as dense Fraction tuples.

    One vector per free column in increasing column order, with entry 1 at
    its free column and 0 at the other free columns, read off the reduced
    row echelon form.
    """
    pivot_cols, rows = _ref_rref(matrix)
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


def mat_vec_reference(field, m, v):
    """m v over the field, one add and mul call per nonzero term."""
    out = []
    for row in m:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = field._add[acc][field._mul[a][b]]
        out.append(acc)
    return tuple(out)


def rref_reference(field, rows):
    """Canonical reduced row echelon form; zero rows dropped.

    Returns a tuple of tuples.  RREF is unique per row space, so this is a
    canonical key for the subspace spanned by the input rows.
    """
    work = [list(r) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("rows must share one length")
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field._inv[work[r][col]]
        work[r] = [field._mul[inv][x] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [field._sub[x][field._mul[c][y]] for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


def tits_building_reference(n, q):
    """The package's Tits building as built before line-incidence containment.

    Same labels and cell order as complexes.tits_building, with "V_i in
    V_j" decided by stacking the two RREF keys and checking that the rank
    stays dim V_j: one fields.rref call per pair of labels.
    """
    from steinberg import fields as ff
    from steinberg.complexes import SemisimplicialSet

    field = ff.finite_field(q)
    labels = []
    for d in range(1, n):
        labels.extend(ff.all_subspaces(field, n, d))
    nv = len(labels)
    # Successor lists: all strictly larger subspaces containing V_i.
    succ = [[] for _ in range(nv)]
    for i, ki in enumerate(labels):
        for j, kj in enumerate(labels):
            if len(kj) > len(ki) and contains_reference(field, kj, ki):
                succ[i].append(j)
    cells = [[(i,) for i in range(nv)]]
    while True:
        prev = cells[-1]
        nxt = []
        for s in prev:
            for j in succ[s[-1]]:
                nxt.append(s + (j,))
        if not nxt:
            break
        cells.append(nxt)
    return SemisimplicialSet(labels, cells)


def contains_reference(field, outer, inner) -> bool:
    """Whether the subspace with RREF key outer contains the one keyed inner:
    stacking the two keys keeps the rank at dim outer."""
    from steinberg import fields as ff

    return len(ff.rref(field, list(outer) + list(inner))) == len(outer)


def is_squarefree_reference(d: int) -> bool:
    """Squarefree test by trial division with f^2 for every odd f <= sqrt(|d|)."""
    if d in (0, 1):
        return False
    n = abs(d)
    if n % 4 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 2
    return True


def reduced_definite_forms_reference(D: int):
    """Reduced definite forms of discriminant D < 0, every (a, b) tried."""
    # Primitive reduced positive definite forms: |b| <= a <= c with
    # b >= 0 when |b| == a or a == c.
    out = []
    amax = isqrt(-D // 3) if D < -3 else 1
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            out.append((a, b, c))
    return sorted(out)


def _is_reduced_indefinite(a, b, D):
    # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, all exact.
    if b <= 0 or b * b >= D:
        return False
    t = 2 * abs(a)
    if t - b >= 0 and (t - b) * (t - b) >= D:
        return False
    if (t + b) * (t + b) <= D:
        return False
    return True


def reduced_indefinite_forms_reference(D: int):
    """Reduced indefinite forms of discriminant D > 0, divisors from f = 1."""
    s = isqrt(D)
    out = []
    for b in range(1, s + 1):
        if (D - b * b) % 4:
            continue
        m = (D - b * b) // 4
        if m <= 0:
            continue
        f = 1
        while f * f <= m:
            if m % f == 0:
                for aa in {f, m // f}:
                    for a in (aa, -aa):
                        c = -m // a
                        if _is_reduced_indefinite(a, b, D):
                            if gcd(gcd(abs(a), b), abs(c)) == 1:
                                out.append((a, b, c))
            f += 1
    return sorted(out)


def _rho(form, D, s):
    # Reduction neighbor: (a, b, c) -> (c, b', (b'^2 - D) / 4c) with
    # b' = -b mod 2|c| chosen maximal below sqrt(D).
    a, b, c = form
    tc = 2 * abs(c)
    # Largest b2 = -b mod 2|c| with b2 <= s: floor division by tc gives
    # b2 <= s < b2 + tc directly.
    b2 = -b + tc * ((s + b) // tc)
    c2 = (b2 * b2 - D) // (4 * c)
    return (c, b2, c2)


@dataclass(frozen=True)
class ClassGroupReference:
    """Narrow class number with reduced form representatives."""

    d: int
    discriminant: int
    h_narrow: int
    representatives: tuple


def class_group_reference(order) -> ClassGroupReference:
    """Narrow class number from sorted lists of reduced forms, one rho step at a time.

    D < 0: the reduced definite forms, listed and counted.  D > 0: every
    reduced indefinite form, both signs of a, is walked one reduction step
    at a time, and each cycle gives one representative.
    """
    D = order.discriminant
    if D < 0:
        forms = reduced_definite_forms_reference(D)
        return ClassGroupReference(order.d, D, len(forms), tuple(forms))
    s = isqrt(D)
    forms = reduced_indefinite_forms_reference(D)
    form_set = set(forms)
    seen = set()
    reps = []
    for f in forms:
        if f in seen:
            continue
        cycle = []
        g = f
        while g not in seen:
            seen.add(g)
            cycle.append(g)
            g = _rho(g, D, s)
            if g not in form_set:
                raise AssertionError(f"reduction left the reduced set: {g}")
        reps.append(min(cycle))
    return ClassGroupReference(order.d, D, len(reps), tuple(sorted(reps)))


def period_convergent_reference(quotients):
    """(p, q) of the continued fraction of the quotients, folded one quotient at a time."""
    p_prev, q_prev, p, q = 1, 0, quotients[0], 1
    for a in quotients[1:]:
        p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
    return p, q


def lines_complex_fq_reference(n, q, budget=None):
    """Ordered tuples of independent lines in F_q^n, one rank test per ordering."""
    from steinberg import fields as ff
    from steinberg.complexes import SemisimplicialSet
    from steinberg.errors import DEFAULT_SIMPLEX_BUDGET
    from steinberg.flags import _within_budget

    if budget is None:
        budget = DEFAULT_SIMPLEX_BUDGET
    field = ff.finite_field(q)
    labels = ff.all_subspaces(field, n, 1)
    gens = [list(k[0]) for k in labels]
    cells = [[(i,) for i in range(len(labels))]]
    total = _within_budget(len(labels), budget, "line complex")
    for size in range(2, n + 1):
        nxt = []
        for simplex in cells[-1]:
            for j in range(len(labels)):
                if j in simplex:
                    continue
                cand = simplex + (j,)
                if ff.matrix_rank(field, [gens[i] for i in cand]) == size:
                    nxt.append(cand)
                    total = _within_budget(total + 1, budget, "line complex")
        if not nxt:
            break
        cells.append(nxt)
    return SemisimplicialSet(labels, cells)


def b_complex_truncated_reference(n, m, height, budget=None):
    """The package's truncated B complex as built before sets were certified once."""
    from itertools import product

    from steinberg.complexes import SemisimplicialSet
    from steinberg.errors import DEFAULT_SIMPLEX_BUDGET
    from steinberg.flags import (
        TruncatedBComplex,
        _last_mod,
        _within_budget,
        completion_witness,
    )

    if budget is None:
        budget = DEFAULT_SIMPLEX_BUDGET
    if n < 1:
        raise ValueError("rank must be positive")
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if height < 1:
        raise ValueError("height bound must be at least 1")
    labels = []
    witnesses = {}
    for vec in product(range(-height, height + 1), repeat=n):
        if not any(vec):
            continue
        if math.gcd(*(abs(x) for x in vec)) != 1:
            continue
        if _last_mod(vec, m) not in (0, 1):
            continue
        wit = completion_witness([vec], n, m)
        if wit is None:
            continue
        witnesses[(0, len(labels))] = wit
        labels.append(tuple(vec))
    cells = [[(i,) for i in range(len(labels))]]
    total = _within_budget(len(labels), budget, "B complex")
    for size in range(2, n + 1):
        nxt = []
        for simplex in cells[-1]:
            vecs = [labels[i] for i in simplex]
            ones = sum(1 for v in vecs if _last_mod(v, m) == 1)
            for j in range(len(labels)):
                if j in simplex:
                    continue
                w = labels[j]
                if ones + (1 if _last_mod(w, m) == 1 else 0) >= 2:
                    continue
                wit = completion_witness(vecs + [w], n, m)
                if wit is None:
                    continue
                witnesses[(size - 1, len(nxt))] = wit
                nxt.append(simplex + (j,))
                total = _within_budget(total + 1, budget, "B complex")
        if not nxt:
            break
        cells.append(nxt)
    return TruncatedBComplex(n, m, height, SemisimplicialSet(labels, cells), witnesses)


def restrict_reference(bx, height):
    """The truncation at a height h <= bx.height, read off bx.

    Certification ignores the height bound and both builds enumerate
    labels and cells in the same order, so the h-truncation is exactly the
    full subcomplex on the vertices of sup-norm <= h.  The result equals
    b_complex_truncated(n, m, h): the same labels, cells and witnesses, in
    the same order.  Its certificates are the stored ones and are not
    checked again.
    """
    from steinberg.complexes import SemisimplicialSet
    from steinberg.flags import TruncatedBComplex

    if not 1 <= height <= bx.height:
        raise ValueError("restriction height must lie in 1..height")
    X = bx.complex
    keep = {}
    for i, v in enumerate(X.labels):
        if max(abs(a) for a in v) <= height:
            keep[i] = len(keep)
    cells = []
    witnesses = {}
    for k, cell in enumerate(X.cells):
        sub = []
        for s, simplex in enumerate(cell):
            if all(i in keep for i in simplex):
                witnesses[(k, len(sub))] = bx.witnesses[(k, s)]
                sub.append(tuple(keep[i] for i in simplex))
        if not sub:
            break
        cells.append(sub)
    labels = [X.labels[i] for i in keep]
    return TruncatedBComplex(bx.n, bx.m, height, SemisimplicialSet(labels, cells), witnesses)


def apartment_span_rank_reference(module):
    """Rank of the span of all apartment classes (one per unordered frame).

    Frames are enumerated as unordered sets of lines (sorted key order
    fixes the representative ordering) and each contributes one class, a
    sparse row of the rank computation.
    """
    from steinberg import fields as ff
    from steinberg.linalg import ExactMatrix, rank
    from steinberg.stmodule import apartment_class

    field = ff.finite_field(module.q)
    lines = ff.all_subspaces(field, module.n, 1)
    classes = []
    for combo in combinations(lines, module.n):
        gens = [list(k[0]) for k in combo]
        if ff.matrix_rank(field, gens) != module.n:
            continue
        classes.append(apartment_class(module, gens))
    cols = len(module.building.cells[module.top])
    return rank(ExactMatrix(len(classes), cols, tuple(classes)))


def apartment_class_reference(module, frame):
    """The apartment class of a frame of independent lines, subset by subset.

    Each flag's vertices are the rref_reference keys of the stacked frame
    rows of its index subsets, looked up in the building's label_index;
    one flag per ordering, in permutations order, signed by its parity.
    """
    from steinberg import fields as ff

    field = ff.finite_field(module.q)
    X, n = module.building, module.n
    out = {}
    for perm in permutations(range(n)):
        flag = tuple(
            X.label_index[rref_reference(field, [frame[i] for i in sorted(perm[: k + 1])])]
            for k in range(n - 1)
        )
        inversions = sum(a > b for a, b in combinations(perm, 2))
        out[X.index[module.top][flag]] = -1 if inversions % 2 else 1
    return out


def simplex_faces(X, k, s):
    """The faces of k-simplex s of X, as indices into X.cells[k-1], by position."""
    return tuple(col[s] for col in X.faces[k])


def chain_complex_reference(X):
    """The augmentation and boundaries [∂_0, ..., ∂_d] of X, read off the tuples.

    ∂_0 is the 1 x n_0 augmentation (1 x 0 for the empty complex).  Column
    s of ∂_k adds (-1)^i at the row X.index[k-1] gives the tuple s with
    position i dropped; the validating ExactMatrix constructor drops the
    entries that cancel.
    """
    from steinberg.linalg import ExactMatrix

    dims = [len(c) for c in X.cells] or [0]
    mats = [ExactMatrix(1, dims[0], ({v: 1 for v in range(dims[0])},))]
    for k in range(1, len(X.cells)):
        rows = [{} for _ in range(dims[k - 1])]
        for s, simplex in enumerate(X.cells[k]):
            for i in range(k + 1):
                row = rows[X.index[k - 1][simplex[:i] + simplex[i + 1 :]]]
                row[s] = row.get(s, 0) + (-1) ** i
        mats.append(ExactMatrix(dims[k - 1], dims[k], tuple(rows)))
    return mats


def reduced_homology_ranks_reference(X):
    """Reduced Betti numbers from the rank of every boundary, as built."""
    from steinberg.linalg import rank

    bnd_rank = [rank(m) for m in chain_complex_reference(X)] + [0]
    return {k: len(X.cells[k]) - bnd_rank[k] - bnd_rank[k + 1] for k in range(len(X.cells))}


def first_nonzero_composite(boundaries):
    """First degree k whose composite boundaries[k-1] @ boundaries[k] is nonzero.

    boundaries is a list [∂_0, ..., ∂_d].  The exact product over the
    sparse integer rows; None when every composite is zero.
    """
    for k in range(1, len(boundaries)):
        right_rows = boundaries[k].row_dicts
        for row in boundaries[k - 1].row_dicts:
            acc = {}
            for c, v in row.items():
                for j, w in right_rows[c].items():
                    acc[j] = acc.get(j, 0) + v * w
            if any(acc.values()):
                return k
    return None


def euler_characteristic(X) -> int:
    """Reduced Euler characteristic: the empty simplex counts in degree -1."""
    total = -1
    for k, c in enumerate(X.cells):
        total += len(c) if k % 2 == 0 else -len(c)
    return total


def coinvariants_dim_reference(action, twist=None) -> int:
    """Dimension of the (possibly sign-twisted) coinvariant quotient.

    Quotient of the module by the span of eps(g) g m - m over generators g
    and module elements m; generators suffice because the relation span is
    closed under multiplying words.
    """
    from steinberg.linalg import ExactMatrix, rank

    if twist is not None and len(twist.signs) != len(action.matrices):
        raise ValueError("twist length does not match generator count")
    dim = action.dim
    if dim == 0:
        return 0
    # One relation row per nonzero column of eps(g) g - 1, generator by
    # generator, read straight from the sparse rows.
    rows = []
    for gi, mat in enumerate(action.matrices):
        if (mat.rows, mat.cols) != (dim, dim):
            raise ValueError("action matrix shape mismatch")
        eps = twist.signs[gi] if twist is not None else 1
        columns = [{} for _ in range(dim)]
        for i, row in enumerate(mat.row_dicts):
            for j, v in row.items():
                columns[j][i] = eps * v
        for j, col in enumerate(columns):
            col[j] = col.get(j, 0) - 1
            if any(col.values()):
                rows.append(col)
    if not rows:
        return dim
    return dim - rank(ExactMatrix(len(rows), dim, tuple(rows)))


def log_embedding_reference(order, u):
    """Dirichlet log vector of a unit, one coordinate per infinite place.

    Real orders: (log|u|, log|u'|) for the two real embeddings.  Imaginary
    orders: (2 log|u|,) with the doubled complex coordinate.  Computed at
    50 decimal digits and returned as floats.  For a real unit |u u'| = 1,
    so only L = log((|a| + |b| sqrt d)/denom), the larger of the two, is
    computed (no cancellation); the other coordinate is -L exactly, and the
    pair sums to exactly 0.
    """
    from mpmath import mp, mpf, log as _mplog
    from steinberg.quadratic import RingElement

    if not isinstance(u, RingElement) or u.d != order.d:
        raise ValueError("element does not belong to the order")
    if not u.is_unit():
        raise ValueError("log embedding defined here for units only")
    old = mp.dps
    mp.dps = 50
    try:
        rt = mp.sqrt(abs(order.d))
        den = mpf(u.denom)
        if order.d > 0:
            big = float(_mplog((mpf(abs(u.a)) + mpf(abs(u.b)) * rt) / den))
            out = (big, -big) if u.a * u.b >= 0 else (-big, big)
        else:
            modulus_sq = (mpf(u.a) ** 2 + mpf(u.b) ** 2 * abs(order.d)) / den**2
            out = (float(_mplog(modulus_sq)),)
    finally:
        mp.dps = old
    return out
