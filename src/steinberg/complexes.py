"""Semisimplicial sets, chain complexes, and Tits buildings.

A semisimplicial set is stored by dimension: vertices carry arbitrary
hashable labels, and a k-simplex is a (k+1)-tuple of vertex label indices.
Face maps drop one position.  Closure under faces is checked on every
built instance; the semisimplicial identities d_i d_j = d_{j-1} d_i
(i < j) need no check, since both sides drop the same two positions and
name the same tuple.  Each level's faces are stored by position: one list
per dropped position, read with one operator.itemgetter, indexed by
simplex.  The boundary rows are filled from those lists one position at a
time.  Builders enforce their simplex budgets while they enumerate.

A simplex repeats no vertex, so every incidence is +-1.  Only the edges
are checked: by closure, a simplex that repeats a has the edge (a, a).

The building of GL_n(F_q) has one vertex per proper nonzero subspace of
F_q^n and one k-simplex per flag V_0 < ... < V_k of such subspaces,
ordered by increasing dimension.
"""

from __future__ import annotations

from itertools import product
from operator import eq, itemgetter

from . import fields as ff
from .errors import DEFAULT_SIMPLEX_BUDGET, BudgetExceededError
from .linalg import ExactMatrix, pivot_columns, rank


class SemisimplicialSet:
    """Simplices by dimension over an indexed vertex label set.

    cells[k] lists the k-simplices as (k+1)-tuples of indices into labels;
    faces[k][i][s] is the index (in cells[k-1]) of the i-th face of simplex
    s, the tuple with position i dropped.  So faces[k] holds k+1 lists, one
    per position, each as long as cells[k]; faces[0] is None.  Raises
    ValueError on duplicate labels or simplices, a simplex that is not a
    tuple (found when the index or face lists meet a TypeError), a simplex
    of the wrong arity, a vertex other than (i,) for an int i in
    range(len(labels)), a missing face, or an edge (a, a).  Closure then
    puts every vertex of a higher simplex in range too, and refuses one
    that repeats a vertex a, whose iterated faces hold (a, a): so no
    simplex repeats a vertex, and every incidence is +-1.
    """

    def __init__(self, labels, cells):
        self.labels = tuple(labels)
        self.label_index = {lbl: i for i, lbl in enumerate(self.labels)}
        if len(self.label_index) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        self.cells = [list(c) for c in cells]
        while self.cells and not self.cells[-1]:
            self.cells.pop()
        try:
            self.index = [{s: i for i, s in enumerate(c)} for c in self.cells]
            for k, c in enumerate(self.cells):
                if len(self.index[k]) != len(c):
                    raise ValueError(f"duplicate {k}-simplex")
                if not set(map(len, c)) <= {k + 1}:
                    arity = next(len(s) for s in c if len(s) != k + 1)
                    raise ValueError(f"{k}-simplex of arity {arity}")
        except TypeError:
            self._raise_not_a_tuple()
            raise
        nv = len(self.labels)
        if self.cells and not all(
            isinstance(s, tuple) and type(s[0]) is int and 0 <= s[0] < nv for s in self.cells[0]
        ):
            raise ValueError(f"a vertex must be (i,) for an int i in range({nv})")
        self.faces = [None]
        for k in range(1, len(self.cells)):
            # One getter per dropped position; slices keep an edge's faces 1-tuples.
            if k == 1:
                getters = [itemgetter(slice(1, 2)), itemgetter(slice(0, 1))]
            else:
                getters = [
                    itemgetter(*(p for p in range(k + 1) if p != i)) for i in range(k + 1)
                ]
            idx = self.index[k - 1]
            cells_k = self.cells[k]
            try:
                columns = [[idx[g(s)] for s in cells_k] for g in getters]
            except KeyError:
                self._raise_missing_face(k)
            except TypeError:
                self._raise_not_a_tuple()
                raise
            # An edge's two faces are its two vertices.
            if k == 1 and any(map(eq, *columns)):
                edge = next(s for s in cells_k if s[0] == s[1])
                raise ValueError(f"edge {edge} repeats a vertex")
            self.faces.append(columns)

    def _raise_not_a_tuple(self):
        """Raise the ValueError naming the first simplex that is not a tuple of ints."""
        for k, c in enumerate(self.cells):
            for s in c:
                if not (isinstance(s, tuple) and all(isinstance(v, int) for v in s)):
                    raise ValueError(f"{k}-simplex {s!r} is not a tuple of vertex indices")

    def _raise_missing_face(self, k):
        """Raise the ValueError naming the first missing face of a k-simplex."""
        idx = self.index[k - 1]
        for s in self.cells[k]:
            for i in range(k + 1):
                f = s[:i] + s[i + 1 :]
                if f not in idx:
                    raise ValueError(f"face {f} of {s} missing (closure violated)")

    @property
    def dimension(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, k) -> int:
        if 0 <= k < len(self.cells):
            return len(self.cells[k])
        return 0

    def total_cells(self) -> int:
        return sum(len(c) for c in self.cells)


class Building(SemisimplicialSet):
    """A Tits building with the line incidence it was built from.

    point maps each nonzero vector of F_q^n to the label index of its
    line.  Bit j of above[i] is set iff label j has dimension 2 or more
    and contains label i (so label i itself, if it is not a line).
    """

    def __init__(self, labels, cells, point, above):
        super().__init__(labels, cells)
        self.point = point
        self.above = above


def chain_complex(X: SemisimplicialSet) -> list:
    """The augmentation and boundary matrices of X, with alternating-sign face sums.

    Returns [∂_0, ..., ∂_d]: ∂_k maps degree-k chains to degree k-1 for
    k >= 1, and ∂_0 is the 1 x n_0 augmentation (1 x 0 for the empty
    complex), so the homology they give in degree 0 is reduced homology.
    Every entry is an int.  d∘d = 0 is not re-multiplied here: faces drop
    positions, so the composite's entries cancel in pairs by the face
    identities d_i d_j = d_{j-1} d_i (i < j), which hold for every tuple.

    Row f of ∂_k is the coboundary of the (k-1)-simplex f.  Position i
    writes (-1)^i at column s of row X.faces[k][i][s].  The faces of a
    simplex are distinct (SemisimplicialSet), so each entry is written
    once: every row holds +-1 at columns in range, and the matrices skip
    the validating constructor.
    """
    mats = [_augmentation(X)]
    for k in range(1, len(X.cells)):
        rows = [{} for _ in X.cells[k - 1]]
        # The index's values are 0..n_k-1 in order; every position keys
        # its entries by those int objects rather than making its own.
        ids = list(X.index[k].values())
        for i, col in enumerate(X.faces[k]):
            sign = -1 if i % 2 else 1
            for s, row in zip(ids, map(rows.__getitem__, col)):
                row[s] = sign
        mats.append(ExactMatrix._from_clean_rows(len(ids), rows))
    return mats


def _augmentation(X: SemisimplicialSet) -> ExactMatrix:
    """The 1 x n_0 all-ones augmentation ∂_0 of X (1 x 0 for the empty complex)."""
    n0 = X.n_cells(0)
    return ExactMatrix._from_clean_rows(n0, (dict.fromkeys(range(n0), 1),))


def reduced_homology_ranks(X: SemisimplicialSet) -> dict:
    """Reduced rational Betti numbers by degree, computed exactly.

    One eliminate_with_clearing over every degree gives the ranks of
    ∂_1..∂_d; rank ∂_0 is that of the augmentation.  Degree k keeps n_k -
    rank ∂_k rows, of which rank ∂_{k+1} become pivots, so exactly β̃_k
    rows reduce to zero.  On a building that is none below the top, and
    top simplices are only ever columns.  The empty complex has no degree.
    """
    ranks, _ = eliminate_with_clearing(X, X.dimension)
    ranks = [rank(_augmentation(X)), *ranks, 0]
    return {k: X.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(X.dimension + 1)}


def eliminate_with_clearing(X: SemisimplicialSet, degrees):
    """Ranks of ∂_1..∂_degrees by cohomology elimination with clearing.

    The boundaries are built here (chain_complex) and owned here: each
    degree takes over the rows it ranks, which the kernel reduces in
    place, and the boundary is released once it is ranked.  Degree k =
    0..degrees-1 ranks the rows of ∂_{k+1}: row f is the coboundary of
    the k-simplex f, over the (k+1)-simplices as columns.  A degree drops
    the rows of the simplices that were pivot columns one degree down
    (clearing, run as cohomology: de Silva, Morozov & Vejdemo-Johansson,
    "Dualities in persistent (co)homology", Inverse Problems 27, 2011;
    Bauer, "Ripser", J. Appl. Comput. Topol. 5, 2021).  Degree 0 drops
    vertex 0, the pivot of the all-ones augmentation row.

    Returns (ranks, kept).  ranks[k] is rank ∂_{k+1}, and kept is
    ∂_{degrees+1} over the rows the next degree would keep, in order:
    None past the top, and the whole augmentation for degrees = -1.  Its
    rows are chain_complex's, clean as built, so they are shared, not
    copied or checked again.

    Clearing is exact:
    - a pivot row of degree k-1 is δc for an integer cochain c; its leading
      entry sits at σ and its other entries sit at later columns;
    - since δδc = 0, δσ lies in the span of δτ for the later τ;
    - by downward induction over the column order, dropping every such σ
      leaves the row space unchanged, and so the rank and the null space.
    The augmentation cocycle, the sum of all vertices, clears vertex 0 in
    the same way.  So kept has the rank, the null space and the reduced
    row echelon kernel basis of the whole ∂_{degrees+1}.
    """
    boundaries = chain_complex(X)
    ranks = []
    cleared = {0} if degrees >= 0 else set()
    for k in range(1, degrees + 1):
        rows = [r for f, r in enumerate(boundaries[k].row_dicts) if f not in cleared]
        boundaries[k] = None
        cleared = set(pivot_columns(X.n_cells(k), rows))
        ranks.append(len(cleared))
    if degrees + 1 == len(boundaries):
        return ranks, None
    boundary = boundaries[degrees + 1]
    kept = [r for f, r in enumerate(boundary.row_dicts) if f not in cleared]
    return ranks, ExactMatrix._from_clean_rows(boundary.cols, kept)


def tits_building(n: int, q: int, budget=DEFAULT_SIMPLEX_BUDGET) -> Building:
    """Flag complex of proper nonzero subspaces of F_q^n.

    Vertices are RREF subspace keys grouped by dimension 1..n-1 in
    enumeration order; k-simplices are flags of k+1 nested subspaces listed
    by increasing dimension.  For n=2 the building is the discrete set of
    the q+1 lines.

    Containment is read off line incidences.  Each nonzero vector of F_q^n
    is indexed by its line, the position of its RREF key among the
    dimension-1 labels.  Each subspace's lines are its tail's lines (the
    label of its RREF rows after the first) and one new line per vector of
    the tail's span, with no field arithmetic beyond one table add per
    entry.  Spans are kept only for labels that can be a tail: those of at
    most n-2 rows whose first row is 0 in column 0, since a tail's rows lie
    right of the pivot of the row before them.  Each line gets the bitmask
    of the labels containing it, and V's successors are the AND of the
    masks of V's RREF rows, read above V's own dimension.  The Building
    keeps point and that AND, V's above mask.
    """
    check_building_budget(n, q, budget)
    field = ff.finite_field(q)
    labels = []
    starts = []
    for d in range(1, n):
        starts.append(len(labels))
        labels.extend(ff.all_subspaces(field, n, d))
    nv = len(labels)
    starts.append(nv)
    line_index = {key: i for i, key in enumerate(labels[: starts[1]])}
    point = {
        v: line_index[ff.rref(field, [v])]
        for v in product(field.elements(), repeat=n)
        if any(v)
    }
    # W's RREF rows after the first, r1, are a label T one dimension down,
    # and W's lines are T's lines and the lines of r1 + w for w in span(T).
    # Each r1 + w has leading entry 1 at r1's pivot, left of every pivot of
    # T, so it is already the normalised vector of its line.  Spans are kept
    # only for labels that can be a tail (see above).
    add, mul = field._add, field._mul
    lines_of = {(): []}
    span_of = {(): [(0,) * n]}
    for key in labels:
        r1, tail = key[0], key[1:]
        tail_span = span_of[tail]
        r1_add = [add[x] for x in r1]
        r1_plus = [tuple(map(list.__getitem__, r1_add, w)) for w in tail_span]
        lines_of[key] = lines_of[tail] + [point[v] for v in r1_plus]
        if len(key) <= n - 2 and not r1[0]:
            span = tail_span + r1_plus
            for c in range(2, q):
                c_add = [add[mul[c][x]] for x in r1]
                span += [tuple(map(list.__getitem__, c_add, w)) for w in tail_span]
            span_of[key] = span
    # incident[l] has bit j set iff label j contains line l.  V is in W iff
    # W contains each of V's RREF rows, so V's successors are the AND of the
    # masks of its rows, above its own dimension.  Labels of one dimension
    # are never nested.
    incident = [0] * starts[1]
    for j in range(starts[1], nv):
        bit = 1 << j
        for line in lines_of[labels[j]]:
            incident[line] |= bit
    # Freed first, so that the kept masks are not allocated among the span
    # lists and pin their memory (up to 12 MB of peak RSS at (4,7)).
    del lines_of, span_of
    above = []
    succ = []
    for key in labels:
        inside = -1
        for row in key:
            inside &= incident[point[row]]
        above.append(inside)
        succ.append(_bit_positions(inside >> starts[len(key)], starts[len(key)]))
    cells = [[(i,) for i in range(nv)]]
    while True:
        nxt = [s + (j,) for s in cells[-1] for j in succ[s[-1]]]
        if not nxt:
            break
        cells.append(nxt)
    return Building(labels, cells, point, above)


def _bit_positions(mask, offset) -> list:
    """offset + i for each set bit i of mask >= 0, increasing."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(offset + i)
        i = digits.find("1", i + 1)
    return out


def _gaussian_binomial(n, k, q) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def check_building_budget(n, q, budget):
    """Raise BudgetExceededError unless the building of F_q^n fits in budget.

    An n < 2, then a q with no field (fields.finite_field), raises
    ValueError first: there is no such building.  The simplices are
    counted without listing them.  chains[m] counts the chains of proper
    nonzero subspaces of F_q^m, the empty one included: a nonempty chain
    is its largest member, of some dimension d, and a chain inside it.
    Expanded, chains[n] - 1 is the sum over flag types of the
    q-multinomial coefficients.  chains grows with m, so counting stops at
    the first m past the budget.
    """
    if n < 2:
        raise ValueError("building needs n >= 2")
    ff.finite_field(q)
    chains = [1, 1]
    for m in range(2, n + 1):
        chains.append(1 + sum(_gaussian_binomial(m, d, q) * chains[d] for d in range(1, m)))
        if chains[m] - 1 > budget:
            raise BudgetExceededError(
                f"building of F_{q}^{n} exceeds the budget of {budget} simplices"
            )


def group_action(X: SemisimplicialSet, q: int, generators) -> tuple:
    """Permutations of a building's chambers under invertible matrices over F_q.

    Returns perms, with perms[g][s] the index of the image of top simplex
    (chamber) s under generator g, read off the map of vertex labels (RREF
    subspace keys, as tits_building makes).  That is all the Steinberg
    action needs, since the chamber map commutes with the top boundary:
    - every simplex of a building is a face of a chamber;
    - the i-th face of a chamber's image is the image of its i-th face,
      as both are read through one vertex map.

    Raises ValueError as checked_generators does (n the ambient dimension
    of the labels), or if a generator sends a vertex or a chamber outside
    X.  An invertible generator's vertex map is injective, and so is its
    chamber map, which is thus a permutation: not re-checked.
    """
    field = ff.finite_field(q)
    gens = checked_generators(len(X.labels[0][0]), q, generators)
    chambers, chamber_index = X.cells[-1], X.index[-1]
    perms = []
    for g in gens:
        vmap = []
        for lbl in X.labels:
            img = ff.subspace_image(field, lbl, g)
            tgt = X.label_index.get(img)
            if tgt is None:
                raise ValueError("generator image leaves the complex")
            vmap.append(tgt)
        perm = []
        for s in chambers:
            tgt = chamber_index.get(tuple(map(vmap.__getitem__, s)))
            if tgt is None:
                raise ValueError("generator does not permute chambers")
            perm.append(tgt)
        perms.append(tuple(perm))
    return tuple(perms)


def checked_generators(n: int, q: int, generators) -> tuple:
    """The generators as tuples of rows, entries reduced mod q, each checked.

    Entries are reduced mod q when q is prime.  Over F_4, F_8 and F_9 an
    entry is an element code 0..q-1 (see fields), which no reduction of
    an integer yields, so an entry outside range(q) is refused.  Raises
    ValueError if a generator is not an n x n integer matrix, has such an
    entry, or is singular; every shape and entry is checked first.
    """
    field = ff.finite_field(q)

    def is_row(v):
        return isinstance(v, (list, tuple)) and len(v) == n

    for g in generators:
        if not (is_row(g) and all(map(is_row, g))) or not all(
            isinstance(x, int) and not isinstance(x, bool) for row in g for x in row
        ):
            raise ValueError(f"generator must be a {n} x {n} integer matrix")
        bad = [x for row in g for x in row if not 0 <= x < q] if field.degree > 1 else ()
        if bad:
            raise ValueError(
                f"entry {bad[0]} is not an element of F_{q}: use the codes 0..{q - 1}"
            )
    gens = tuple(tuple(tuple(x % q for x in row) for row in g) for g in generators)
    for g in gens:
        if not ff.is_invertible(field, g):
            raise ValueError("generator is not invertible")
    return gens
