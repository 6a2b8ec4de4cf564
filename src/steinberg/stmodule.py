"""Steinberg modules, apartment classes, coinvariants, and duality data.

The Steinberg module of GL_n(F_q) is realized concretely as the cycle
space in the top degree (n-2) of the reduced chain complex of the
building: every top chain with zero boundary.  A top chain is always a
sparse {top-simplex index: value} dict.  The canonical basis is
linalg.kernel_basis of the top boundary, kept as sparse supports: one
basis cycle per free column, 1 there and 0 at the other free columns.
The basis is integral, and kernel_basis certifies it: it raises
ValueError when the reduced row echelon form is not integral.  On every
building the default simplex budget admits, each support value is 1 or
-1 (tests/test_stmodule.py,
test_basis_is_certified_integral_on_every_default_building).  The free
column is the last entry of its support, so a cycle's coordinates are its
values at the free columns.  The basis is read from the top boundary's
kept rows, which complexes.eliminate_with_clearing returns after it has
eliminated the lower degrees: the rows they clear lie in the span of the
kept ones, so the null space, and with it the reduced row echelon basis,
is that of the whole boundary.

Apartment classes: a frame of n independent lines L_1..L_n spans one
apartment, the barycentric (n-2)-sphere on the proper nonempty index
subsets I (vertex = span of L_i, i in I).  Its fundamental cycle is the
signed sum over maximal chains of subsets, one chain per permutation,
weighted by the permutation sign; vertices inside each flag are ordered by
subset size, and read off the building's line incidence with no rref.
It is a sparse top chain with n! entries, each +1 or -1.  Swapping two
frame lines negates the class.  It is a cycle because the flags of two
orderings that differ by one adjacent swap share the face that drops the
swapped subspace, with opposite signs; so a class whose n! flags are n!
distinct chambers needs no boundary pass (apartment_class).
That apartment classes span the module is certified with no elimination
by the Solomon-Tits basis among them (apartment_span_rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import itemgetter

from . import fields as ff
from .complexes import eliminate_with_clearing, group_action, tits_building
from .errors import DEFAULT_SIMPLEX_BUDGET
from .linalg import ExactMatrix, kernel_basis, rank
from .linalg.lattices import integer_determinant


@dataclass(frozen=True)
class LinearAction:
    """A list of exact square matrices acting on a space of dimension dim."""

    dim: int
    matrices: tuple


@dataclass(frozen=True)
class CharacterTwist:
    """Signs, the ints 1 and -1 (not True or 1.0), one per generator."""

    signs: tuple

    def __post_init__(self):
        if any(type(s) is not int or s not in (1, -1) for s in self.signs):
            raise ValueError("twist signs must be the integers 1 and -1")


class SteinbergModule:
    """Top cycle space of the reduced building chain complex.

    supports[j] lists the nonzero (column, value) pairs of basis cycle j,
    in column order.  The coordinate column of basis cycle j is its free
    column, the last entry of its support: the cycle is 1 there and every
    other basis cycle is 0, so a cycle's coordinates are its values at
    the free columns.  action() reads them with no cycle check, since its
    chamber permutations commute with the top boundary.  No boundary
    matrix is kept.

    The basis is kernel_basis of the top boundary's rows less those the
    eliminations of degrees 0..top-2 clear (eliminate_with_clearing with
    degrees top-1; for n = 2 that is the whole augmentation).  Clearing
    keeps the rank, and the kept rows are a subset, so they span the same
    row space: the null space and its canonical basis are those of the
    whole boundary, bit for bit.
    """

    def __init__(self, n, q, budget=DEFAULT_SIMPLEX_BUDGET):
        self.n = n
        self.q = q
        self.building = tits_building(n, q, budget=budget)
        self.top = n - 2
        self.supports = kernel_basis(eliminate_with_clearing(self.building, self.top - 1)[1])
        self.dim = len(self.supports)
        # The coordinate column of each basis cycle: its free column.
        self._coord_index = {support[-1][0]: j for j, support in enumerate(self.supports)}

    def action(self, generators) -> LinearAction:
        """Exact matrices of the generators acting on the cycle space.

        Generators act by permuting top simplices (flags map to flags with
        preserved dimension order, so no signs appear).  group_action's
        chamber permutation commutes with the top boundary (see there), so
        a permuted basis cycle g.z has boundary g.(boundary of z) = 0, and
        is not re-checked.  Its coordinates, its values at the free
        columns, are written straight into the matrix rows.

        The rows are clean as built, so the matrices skip the validating
        constructor: each value is a support value, a nonzero int from
        kernel_basis, and each (row, column) pair is written at most once,
        since perm is a bijection and a support lists distinct columns.
        """
        index = self._coord_index
        mats = []
        for perm in group_action(self.building, self.q, generators):
            rows = [{} for _ in range(self.dim)]
            for j, support in enumerate(self.supports):
                for s, v in support:
                    i = index.get(perm[s])
                    if i is not None:
                        rows[i][j] = v
            mats.append(ExactMatrix._from_clean_rows(self.dim, rows))
        return LinearAction(self.dim, tuple(mats))


def steinberg_module(n, q, budget=DEFAULT_SIMPLEX_BUDGET) -> SteinbergModule:
    return SteinbergModule(n, q, budget=budget)


def _perm_sign(perm) -> int:
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


@lru_cache(maxsize=None)
def _orderings(n):
    """(join steps, flag readers) of an apartment class of rank n.

    The proper nonempty subsets of range(n) are laid out in a list: the
    singletons in index order, then the larger subsets in combinations
    order, size by size.  A join step (p, i) says that the next subset is
    the subset at position p with index i added, i being its largest
    index.  An apartment class has one flag per ordering of its frame, the
    spans of its first 1, ..., n-1 lines; each ordering, in permutations
    order, comes with one reader that returns the flag's subset vertices
    as a tuple, and the ordering's sign.  Only these depend on the
    ordering, so they are listed once per n.
    """
    subsets = [(i,) for i in range(n)]
    subsets += [c for size in range(2, n) for c in combinations(range(n), size)]
    position = {s: p for p, s in enumerate(subsets)}
    steps = tuple((position[s[:-1]], s[-1]) for s in subsets[n:])
    readers = []
    for perm in permutations(range(n)):
        flag = [position[tuple(sorted(perm[: k + 1]))] for k in range(n - 1)]
        # itemgetter of one position returns the item, not a 1-tuple
        read = itemgetter(*flag) if n > 2 else lambda vertices, p=flag[0]: (vertices[p],)
        readers.append((read, _perm_sign(perm)))
    return steps, tuple(readers)


def apartment_class(module: SteinbergModule, frame_lines):
    """Fundamental cycle of the apartment spanned by n independent lines.

    frame_lines: n vectors over F_q, one spanning each line, each of n ints
    (not bools) in range(q).  Returns the class as a sparse top chain
    {top-simplex index: +1 or -1}: one flag of nested spans per ordering
    of the frame in _orderings(n) order, signed by the ordering's sign; the
    reversed ordering's flag comes last.  Reordering the frame by an odd
    permutation negates the class.

    The frame entries, each frame line and the frame's independence are
    checked on every call; the independence check skips the rank when the
    frame's rows are unitriangular (row j is 1 at j and 0 after it), since
    its determinant is then 1.  Vertices are read off the building's line
    incidence (complexes.Building), and nothing is written.  A line's
    vertex is point[v] of its frame vector v.  The vertex of an index
    subset I of size 2 or more, the join of the vertex V of I minus its
    last index i and the line L of vector i, is the lowest set bit of
    above[V] & above[L].  That AND holds exactly the labels of dimension
    2 or more that contain V and L.  The frame is independent (checked
    first), so L is not in V and each such label has dimension at least
    dim V + 1; span(I) = V + L is the only one of that dimension, and
    labels are grouped by increasing dimension, so it is the lowest bit.
    On a corrupt building an empty AND gives -1, which no chamber holds.

    The cycle condition is certified exactly, with no boundary pass.  Let
    flag(s) be the flag of ordering s and s' the ordering s with its k-th
    and (k+1)-th lines swapped.  flag(s) and flag(s') differ only in their
    k-th subspace, so their k-th faces are one simplex, entered with the
    signs (-1)^k sign(s) and (-1)^k sign(s') = -(-1)^k sign(s): they cancel.
    The pairing s -> s' has no fixed points, so the boundary of the signed
    sum of the n! flags is zero.  The returned chain is that sum exactly
    when no two flags are one chamber, that is when it has n! entries.  A
    frame of independent lines always gives n! distinct chambers (distinct
    subsets span distinct subspaces), so a flag missing from the building
    or a repeated chamber means the building is corrupt: either raises
    AssertionError.
    """
    n, q = module.n, module.q
    building = module.building
    point, above = building.point, building.above
    frame = [tuple(line) for line in frame_lines]
    if len(frame) != n:
        raise ValueError(f"frame needs exactly {n} lines")
    if any(len(line) != n for line in frame) or not all(
        isinstance(x, int) and not isinstance(x, bool) and 0 <= x < q for line in frame for x in line
    ):
        raise ValueError(f"frame entries must be {n} integers in range({q})")
    # vertex index of each subset, laid out as in _orderings(n): the lines
    # first, then one join per step
    vertices = []
    for line in frame:
        vi = point.get(line)
        if vi is None:
            raise ValueError("frame entries must be lines")
        vertices.append(vi)
    unitriangular = all(line[j] == 1 and not any(line[j + 1 :]) for j, line in enumerate(frame))
    if not unitriangular and ff.matrix_rank(ff.finite_field(q), frame) != n:
        raise ValueError("frame lines are not independent")
    steps, readers = _orderings(n)
    for p, i in steps:
        joined = above[vertices[p]] & above[vertices[i]]
        vertices.append((joined & -joined).bit_length() - 1)
    simplices = building.index[module.top]
    try:
        support = {simplices[read(vertices)]: sign for read, sign in readers}
    except KeyError:
        raise AssertionError("apartment flag missing from building") from None
    if len(support) != len(readers):
        raise AssertionError("apartment flags are not distinct chambers")
    return support


def apartment_span_rank(module: SteinbergModule) -> int:
    """Rank of the span of all apartment classes, certified by a basis of them.

    The Solomon-Tits basis (L. Solomon, "The Steinberg character of a
    finite group with BN-pair", 1969; Abramenko & Brown, Buildings, GTM
    248, ch. 4): one class per upper unitriangular u over F_q, for the
    frame of u's columns, whose designated chamber is the flag of spans of
    u's last 1, ..., n-1 columns, the last key of its class.  Checked
    exactly: the designated chambers are distinct, and none lies in the
    support of another class.  The number of classes returned is exact
    because:
    - each class is +1 or -1 on its own designated chamber and 0 on the
      others, so the classes are independent;
    - every apartment class is a top cycle, so the span rank is at most
      module.dim: apartment_class certifies each class it builds, and GL_n is
      transitive on frames and commutes with both the class formula and
      the boundary, so that covers every frame;
    - hence the return value is the span rank whenever it equals module.dim.
    Raises AssertionError if a check fails.
    """
    n = module.n
    count = 0
    designated = set()
    others = set()
    for entries in product(range(module.q), repeat=n * (n - 1) // 2):
        above = iter(entries)
        # column j of u: its j entries above the diagonal, 1, then zeros
        frame = [[next(above) for _ in range(j)] + [1] + [0] * (n - 1 - j) for j in range(n)]
        *rest, own = apartment_class(module, frame)
        designated.add(own)
        others.update(rest)
        count += 1
    if len(designated) != count:
        raise AssertionError("designated chambers are not distinct")
    if not designated.isdisjoint(others):
        raise AssertionError("an apartment class meets another class's designated chamber")
    return count


def coinvariants_dim(action: LinearAction, twist: CharacterTwist | None = None) -> int:
    """Dimension of the (possibly sign-twisted) coinvariant quotient.

    Quotient of V = Q^dim by the span of eps(g) g m - m over generators g
    and module elements m; generators suffice because the relation span is
    closed under multiplying words.  Each column j of eps(g) g - 1 gives one
    relation, and the quotient is taken in two steps, which is exact for
    any split of the relations, since V/(R1 + R2) = (V/R1)/image(R2):
    - R1, the relations of the columns of g that hold exactly one entry, v
      = +-1 at row i.  Such a column says e_j = eps v e_i, so a signed
      union-find merges the basis vectors into orbits, keeping each one's
      sign relative to its root.  An orbit that closes with sign -1 gives e
      = -e, so its root is zero over Q; otherwise the root survives.  V/R1
      has the live roots as a basis, and e_j maps to its sign times its
      root, or to zero.
    - R2, the relations of every other column (no entry, several, or one
      of another value), projected onto the live roots and ranked.  The
      result is the number of live roots minus that rank.
    """
    if twist is not None and len(twist.signs) != len(action.matrices):
        raise ValueError("twist length does not match generator count")
    dim = action.dim
    if any((mat.rows, mat.cols) != (dim, dim) for mat in action.matrices):
        raise ValueError("action matrix shape mismatch")
    signs = twist.signs if twist is not None else (1,) * len(action.matrices)
    # e_x = sign[x] e_parent[x]; a root is dead once e_root = -e_root.
    parent = list(range(dim))
    sign = [1] * dim
    dead = [False] * dim

    def find(x):
        """(root, s) with e_x = s e_root; compresses the path to the root."""
        p = parent[x]
        if p == x:
            return x, 1
        if parent[p] == p:
            return p, sign[x]
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        s = 1
        for y in reversed(path):
            s *= sign[y]
            sign[y] = s
            parent[y] = x
        return x, s

    general = []
    for mat, eps in zip(action.matrices, signs):
        row_dicts = mat.row_dicts
        # row_of[j]: the row of column j's one entry; -1 if none, -2 if several
        row_of = [-1] * dim
        for i, row in enumerate(row_dicts):
            for j in row:
                row_of[j] = i if row_of[j] == -1 else -2
        ranked = []
        for j, i in enumerate(row_of):
            v = row_dicts[i][j] if i >= 0 else 0
            if v != 1 and v != -1:
                ranked.append(j)
                continue
            rj, sj = find(j)
            ri, si = find(i)
            s = sj * eps * v * si
            if rj == ri:
                if s == -1:
                    dead[ri] = True
            else:
                parent[rj] = ri
                sign[rj] = s
                dead[ri] = dead[ri] or dead[rj]
        if ranked:
            general.append((mat, eps, ranked))
    live = {}
    for x in range(dim):
        if parent[x] == x and not dead[x]:
            live[x] = len(live)
    # proj[x]: (live root column, sign) of e_x in V/R1, or None where e_x = 0.
    proj = []
    for x in range(dim):
        r, s = find(x)
        proj.append((live[r], s) if r in live else None)
    # One projected relation row per ranked column of eps(g) g - 1, read
    # straight from the sparse rows.
    rows = []
    for mat, eps, ranked in general:
        relations = [{} for _ in range(dim)]
        for i, row in enumerate(mat.row_dicts):
            if proj[i] is None:
                continue
            k, s = proj[i]
            for j, v in row.items():
                rel = relations[j]
                rel[k] = rel.get(k, 0) + s * eps * v
        for j in ranked:
            rel = relations[j]
            if proj[j] is not None:
                k, s = proj[j]
                rel[k] = rel.get(k, 0) - s
            if rel and any(rel.values()):
                rows.append(rel)
    return len(live) - rank(ExactMatrix(len(rows), len(live), tuple(rows)))


class DualizingType(Enum):
    STEINBERG = "Steinberg"
    STEINBERG_TWISTED = "SteinbergTwisted"


def dualizing_module_type(n: int, inv) -> DualizingType:
    """Dichotomy verdict for the duality module of GL_n over an order.

    inv is the order's quadratic.OrderInvariants.  Twisted exactly when n
    is even and the order has a unit of norm -1; imaginary quadratic
    orders never do, so they always land on the plain Steinberg side.
    The twisting character g -> sign N(det g) needs no code of its own:
    sign N(det diag(u, 1, ..., 1)) = sign N(u), so it is nontrivial exactly
    when norm_minus_one holds.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if inv.norm_minus_one and n % 2 == 0:
        return DualizingType.STEINBERG_TWISTED
    return DualizingType.STEINBERG


def orientation_character_det(n: int) -> int:
    """Sign of diag(-1,1,...,1) acting on gl_n modulo antisymmetric matrices.

    The quotient has basis the cosets of the matrix units E_ij with
    i <= j; conjugation by the reflection fixes or negates each coset.  The
    determinant is computed from the exact induced matrix and equals
    (-1)^(n-1): exactly the cosets E_1j with j >= 2 are negated.
    """
    if n < 1:
        raise ValueError("n must be positive")
    basis = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {b: k for k, b in enumerate(basis)}
    dim = len(basis)
    sgn = [-1] + [1] * (n - 1)
    # Row k is the image of basis coset k: the transpose of the induced
    # matrix, which has the same determinant.
    images = []
    for (i, j) in basis:
        # Conjugate the representative E_ij by diag(-1,1,...,1) and project
        # back to coset coordinates: M -> coords c_kk = M_kk, c_kl = M_kl + M_lk.
        mat = [[0] * n for _ in range(n)]
        mat[i][j] = 1
        conj = [[sgn[r] * sgn[c] * mat[r][c] for c in range(n)] for r in range(n)]
        image = [0] * dim
        for r in range(n):
            for c in range(r, n):
                v = conj[r][c] if r == c else conj[r][c] + conj[c][r]
                if v:
                    image[pos[(r, c)]] += v
        images.append(image)
    det = integer_determinant(images)
    if det not in (1, -1):
        raise AssertionError("orientation determinant must be a sign")
    return 1 if det == 1 else -1


# Standard generator sets for the finite general and special linear groups.


def _primitive_element(field):
    q = field.q
    for a in range(2, q):
        x = a
        order = 1
        while x != 1:
            x = field.mul(x, a)
            order += 1
        if order == q - 1:
            return a
    raise AssertionError("no primitive element found")


def gl_generators(n: int, q: int):
    """Generators of GL_n(F_q): a transvection, an n-cycle, a diagonal.

    For q = 2 the diagonal is omitted (trivial); for non-prime q the
    transvection appears for both basis scalars of the field.  Raises
    ValueError for n < 2, where there is no transvection.
    """
    if n < 2:
        raise ValueError("GL_n generators need n >= 2")
    field = ff.finite_field(q)
    gens = []
    e12 = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    e12[0][1] = 1
    gens.append(tuple(tuple(r) for r in e12))
    if field.degree > 1:
        alt = [list(r) for r in e12]
        alt[0][1] = _primitive_element(field)
        gens.append(tuple(tuple(r) for r in alt))
    cyc = [[0] * n for _ in range(n)]
    for i in range(n):
        cyc[(i + 1) % n][i] = 1
    gens.append(tuple(tuple(r) for r in cyc))
    if q > 2:
        a = _primitive_element(field)
        dia = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        dia[0][0] = a
        gens.append(tuple(tuple(r) for r in dia))
    return gens


def sl_generators(n: int, q: int):
    """Elementary transvections E_ij(c) generating SL_n(F_q)."""
    field = ff.finite_field(q)
    scalars = [1]
    if field.degree > 1:
        scalars.append(_primitive_element(field))
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for c in scalars:
                    m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
                    m[i][j] = c
                    gens.append(tuple(tuple(r) for r in m))
    return gens


def trivial_generators(n: int):
    return [tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))]
