"""Truncated B complexes over Z^n: certified bases under a mod-m rule.

b_complex_truncated is a height truncation of the complex whose simplices
are ordered tuples of vectors in Z^n extendable to a basis in which every
vector has last coordinate 0 or 1 mod m and exactly one has last
coordinate 1.  Membership is decided exactly: a completion certificate is
constructed (or proven impossible) by unimodular row reduction on the
last-coordinate values, so no witness search can run out of budget.  A
set of n vectors needs no completion: it is a basis exactly when its
determinant is +-1.

Membership is a property of the unordered set, closed under faces.  So
the builder's loop (_ordered_simplices) tries as pairs only the partners
listed for a vertex, certifies each set once, tries only vertices paired
with every member, counts the k! orderings of each certified k-set
against the budget, and only then lists the orderings.  The basis
complex lists only pairs of the right residue classes whose 2x2 minors
have gcd 1 (for n = 2, the solutions of det = +-1, read off the vertex's
own completion row), so its certify sees no pair rule.
verify_witnesses re-checks each distinct (vertex set, witness) pair once.

case1_retraction implements the vertex map v -> v - w (for v with last
coordinate 1 mod m) on the link of a 1-vertex w in the complex where
several last coordinates 1 are allowed in one simplex.  That link and its
edges are decided by saturation alone, and the same lemma (in its
docstring) puts the images, joined with w, in the exactly-one complex, so
no completion is made for them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, product

from .complexes import SemisimplicialSet, reduced_homology_ranks
from .errors import BudgetExceededError, DEFAULT_SIMPLEX_BUDGET
from .linalg.lattices import complete_to_basis, integer_determinant, is_saturated, snf_transform

# Link vertices and pairs that case1_retraction decides at most.
CASE1_PAIR_BUDGET = 20000


def _within_budget(total, budget, what) -> int:
    """The running simplex count, raising BudgetExceededError past budget."""
    if total > budget:
        raise BudgetExceededError(f"{what} exceeds budget {budget}")
    return total


def _ordered_simplices(vertex_certs, n, partners, certify, budget, what):
    """Ordered simplices of sizes 1..n, each with its set's certificate.

    The vertices are 0..len(vertex_certs)-1.  partners(i) lists, in
    increasing order, the indices j > i that may form an edge with i; a
    pair it leaves out is never certified.  certify(s) decides a strictly
    increasing index tuple s of size >= 2 built from listed pairs: it
    returns a certificate (any value but None) or None when s is no
    simplex.  Being a simplex must be a property of the set, and every
    subset of a simplex must be one.

    Sets are certified once each, size by size.  The pairs are i with each
    of partners(i).  A certified k-set, k >= 3, is a certified (k-1)-set,
    its largest index removed, extended by that index; so extending each
    certified (k-1)-set by the indices above its last reaches every
    certified k-set exactly once.  Every pair inside a simplex is a
    simplex, so from size 3 on only the indices adjacent to every member
    of the (k-1)-set are tried.  Every ordering of a certified k-set is a
    simplex, so size k adds k! simplices per certified set; that count is
    checked against budget as each set certifies, before any ordering is
    listed.

    Orderings are listed for each ordered (k-1)-simplex, in order, with
    each vertex j that extends its set, in increasing order.  So when
    certify ignores a height bound, as the basis complex's does, the
    h-truncation is exactly the full subcomplex on the vertices of
    sup-norm <= h, listed in the same order.  Returns (cells, certs) with
    certs[k][i] the certificate of the set of cells[k][i]; certs[0] is
    vertex_certs.
    """
    nv = len(vertex_certs)
    total = _within_budget(nv, budget, what)
    cells = [[(i,) for i in range(nv)]]
    certs = [list(vertex_certs)]
    keys = cells[0]  # the sorted set of each simplex in cells[-1]
    level = cells[0]  # the certified sets of the last size, each sorted
    common = None  # common[s]: the vertices paired with every member of s, sorted
    for size in range(2, n + 1):
        orderings = math.factorial(size)
        found = {}
        for s in level:
            above = partners(s[-1]) if common is None else [j for j in common[s] if j > s[-1]]
            for j in above:
                t = s + (j,)
                cert = certify(t)
                if cert is not None:
                    found[t] = cert
                    total = _within_budget(total + orderings, budget, what)
        if not found:
            break
        if common is None:
            nbrs = [set() for _ in range(nv)]
            for i, j in found:
                nbrs[i].add(j)
                nbrs[j].add(i)
            common = {(i,): sorted(nbrs[i]) for i in range(nv)}
        # Each j extending the set s, in increasing order, with the sorted
        # extended set: looked up once per set, read by each ordering.
        ext = {
            s: [(j, t) for j in common[s] if (t := tuple(sorted(s + (j,)))) in found]
            for s in level
        }
        nxt = []
        nxt_certs = []
        nxt_keys = []
        for simplex, s in zip(cells[-1], keys):
            for j, t in ext[s]:
                nxt.append(simplex + (j,))
                nxt_certs.append(found[t])
                nxt_keys.append(t)
        cells.append(nxt)
        certs.append(nxt_certs)
        keys = nxt_keys
        level = found
        if size < n:
            common = {t: [x for x in common[t[:-1]] if x in nbrs[t[-1]]] for t in found}
    return cells, certs


def _last_mod(vec, m) -> int:
    return vec[-1] % m


def completion_witness(vectors, n, m):
    """Rows completing the given vectors to a basis meeting the mod-m rules.

    Rules on the full basis: every last coordinate is 0 or 1 mod m and
    exactly one is 1 mod m.  Returns a tuple of rows or None when no
    completion exists; the decision is exact.
    """
    k = len(vectors)
    if not 1 <= k <= n:
        return None
    rows = [list(v) for v in vectors]
    lasts = [_last_mod(v, m) for v in rows]
    if any(c not in (0, 1) for c in lasts):
        return None
    t = sum(1 for c in lasts if c == 1)
    if t >= 2:
        return None
    if k == n:
        # The rows are the whole basis: nothing to complete.
        return () if t and is_saturated(rows) else None
    comp = complete_to_basis(rows, n)
    if comp is None:
        return None
    if t:
        base, witness = rows[lasts.index(1)], []
    else:
        # No 1-vertex is given, so the witness makes one, base, from the
        # completion rows.  A single row serves as base with either sign
        # whose last coordinate is 1 mod m, the positive sign first.  For
        # more rows, the U of the Smith reduction of their last-coordinate
        # column gathers its gcd g > 0 into the first row and zeros the
        # rest; then base = y * first + second, with y g = 1 mod m, and
        # the first row stays in the witness in place of the second.
        if len(comp) == 1:
            (u,) = comp
            base = u if u[-1] > 0 else [-a for a in u]
            if base[-1] % m != 1:
                base = [-a for a in base]
                if base[-1] % m != 1:
                    return None
            comp = []
        else:
            U = snf_transform([[r[-1]] for r in comp]).U
            comp = [[sum(c * r[j] for c, r in zip(row, comp)) for j in range(n)] for row in U]
            g = comp[0][-1]
            if math.gcd(g, m) != 1:
                raise AssertionError("completion gcd shares a factor with m")
            y = pow(g, -1, m)
            base = [y * a + b for a, b in zip(comp[0], comp.pop(1))]
        witness = [base]
    # Subtract multiples of the 1-vertex base to zero every other last
    # coordinate mod m.
    witness += [[a - r[-1] * b for a, b in zip(r, base)] for r in comp]
    _check_certificate(rows + witness, n, m)
    return tuple(tuple(w) for w in witness)


def _check_certificate(full, n, m):
    """Raise AssertionError unless full is a basis of Z^n obeying the mod-m rules.

    The four conditions: n rows, saturated (so a basis), every last
    coordinate 0 or 1 mod m, and exactly one last coordinate 1 mod m.
    """
    if len(full) != n:
        raise AssertionError("certificate has wrong size")
    if not is_saturated(full):
        raise AssertionError("certificate is not unimodular")
    lasts = [_last_mod(r, m) for r in full]
    if any(c not in (0, 1) for c in lasts):
        raise AssertionError("certificate violates the mod-m rule")
    if lasts.count(1) != 1:
        raise AssertionError("certificate has the wrong number of 1-vertices")


@dataclass(frozen=True)
class TruncatedBComplex:
    """Height-H truncation of the exactly-one-1 basis complex over Z^n.

    complex: semisimplicial set of ordered vertex tuples; witnesses maps
    (dim, simplex index) to completion rows certifying extendability
    (completions ignore the height bound).  Every ordering of a set carries
    the witness made for the set in increasing index order: the rows
    complete the set in any order.  Each witness was checked when it was
    made; verify_witnesses checks them all again on demand, once per
    distinct (vertex set, witness) pair.  witness_failures counts
    candidates whose certification could not be decided; the constructive
    decision procedure never leaves any, so it is always 0.
    """

    n: int
    m: int
    height: int
    complex: SemisimplicialSet
    witnesses: dict
    witness_failures: int = 0

    def component_counts(self):
        """Connected components of the truncation at each height 1..height.

        The truncation at h is the full subcomplex on the vertices of
        sup-norm <= h (certification ignores the height bound, and
        _ordered_simplices lists cells in the same order at every
        height), so one union-find adds each vertex and each edge at the
        height where it first appears; entry h - 1 is the number of
        components at height h.
        """
        X = self.complex
        norms = [max(abs(a) for a in v) for v in X.labels]
        arrivals = [0] * (self.height + 1)
        for r in norms:
            arrivals[r] += 1
        edges_at = [[] for _ in range(self.height + 1)]
        for i, j in X.cells[1] if len(X.cells) > 1 else ():
            if i < j:
                edges_at[max(norms[i], norms[j])].append((i, j))
        parent = list(range(len(norms)))

        def root(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        counts = []
        count = 0
        for h in range(1, self.height + 1):
            count += arrivals[h]
            for i, j in edges_at[h]:
                a, b = root(i), root(j)
                if a != b:
                    parent[a] = b
                    count -= 1
            counts.append(count)
        return counts

    def verify_witnesses(self):
        """Recheck every stored certificate: unimodular and mod-m sound.

        Whether the vertices and witness rows form such a basis does not
        depend on the order of the vertices (|det| and the multiset of
        last coordinates do not), so each distinct (vertex set, witness)
        pair is checked once.  The key holds the witness, so a wrong
        witness on any single ordering is still checked, and caught.
        """
        X = self.complex
        checked = set()
        for k, cell in enumerate(X.cells):
            for s, simplex in enumerate(cell):
                wit = self.witnesses[(k, s)]
                key = (tuple(sorted(simplex)), wit)
                if key in checked:
                    continue
                checked.add(key)
                full = [list(X.labels[i]) for i in simplex]
                full.extend(list(w) for w in wit)
                _check_certificate(full, self.n, self.m)
        return True


def _unimodular_partners(u, w, height):
    """The v of sup-norm <= height with det(u, v) = +-1, given one such w.

    The kernel of v -> det(u, v) is Z u, so the solutions of det = +-1
    are e w + t u for e = +-1.  Each coordinate k with u_k != 0 bounds t
    by |e w_k + t u_k| <= height.
    """
    out = []
    for e in (1, -1):
        c = (e * w[0], e * w[1])
        lo, hi = None, None
        for ck, uk in zip(c, u):
            if uk == 0:
                continue
            if uk < 0:
                ck, uk = -ck, -uk
            t_lo, t_hi = -((height + ck) // uk), (height - ck) // uk
            lo = t_lo if lo is None else max(lo, t_lo)
            hi = t_hi if hi is None else min(hi, t_hi)
        out.extend((c[0] + t * u[0], c[1] + t * u[1]) for t in range(lo, hi + 1))
    return out


def b_complex_truncated(n, m, height, budget=DEFAULT_SIMPLEX_BUDGET) -> TruncatedBComplex:
    """All certified simplices on primitive vectors of sup-norm <= height.

    Vertices are primitive vectors with last coordinate 0 or 1 mod m,
    kept only when they certify as 0-simplices.  Higher simplices are
    ordered tuples of distinct vertices; every ordering of a certified
    set appears.

    Whether a set of vectors extends to such a basis does not depend on
    their order (unimodularity, the mod-m rule and the count of
    1-vertices are properties of the set), so each set is certified once,
    and every ordering of it carries its witness.  Exact rules decide a
    set with no completion_witness call, each in one place:

    - where pairs are listed (partners), by residue class: two 1-vertices
      never pair, and for n = 2 neither do two 0-vertices (a whole basis
      with no 1-vertex to carry the one 1);
    - there too, by minors: a pair {u, v} whose 2x2 minors
      u_i v_j - u_j v_i have a gcd other than 1 is not listed.  If u, v
      and completion rows form a basis, the Laplace expansion of its
      determinant along the rows u and v is an integer combination of
      these minors, so their gcd divides the determinant +-1.  For n = 2
      the one minor is det(u, v), and the pairs with det +-1 are listed
      directly: u's vertex witness is one row w with det(u, w) = +-1, the
      solutions of det = +-1 are +-w + t u, and those that are vertices
      of index above u's and of the other residue class are listed in
      increasing order;
    - in certify, every set of n vectors, which can only be a whole
      basis: it is certified with witness () exactly when it has a
      1-vertex and its determinant, one integer_determinant call, is +-1.  With no
      1-vertex its last column is 0 mod m, so its determinant is too; the
      set is rejected without computing it (for n = 2 such a pair is
      never listed, so this fires only for n >= 3).

    A set with two 1-vertices holds an unlisted pair, so it is never
    formed.  Every smaller set is decided by one completion_witness call
    on its vectors in increasing index order, which builds the witness and
    checks it.  completion_witness gives a set of n vectors () exactly
    when it has one 1-vertex and determinant +-1, and the rules skip only
    sets it would reject, so the cells and witnesses are those of a call
    on every set.

    A face of a simplex is a simplex: the vectors dropped from a basis
    obeying the exactly-one rule join the completion rows, and the basis
    is unchanged.  So every pair inside a simplex certifies, and from
    size 3 on a set is extended only by vertices that certify in a pair
    with each of its members.
    Each witness is checked once as it is made: by completion_witness, or
    for a set of n vectors by its determinant.

    Raises ValueError for height < 1 or m < 2, and BudgetExceededError as
    soon as the simplex count, vertices included, passes budget.  Vertices
    are counted before they are certified, from two sets known to hold
    only vertices: the (2 height + 1)^(n-1) vectors (x, 1), completed by
    e_1, ..., e_{n-1}, before any vector is listed; and the primitive
    vectors with last coordinate 1 mod m, as they are listed (complete one
    to a basis, then subtract multiples of it from the completion rows).
    For n = 1 the only primitive vectors are +-1.  A certified k-set
    brings k! ordered simplices, so each size is counted set by set,
    before any of its orderings is listed.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if height < 1:
        raise ValueError("height bound must be at least 1")
    if n == 1:
        vectors = [(-1,), (1,)]  # the primitive vectors of Z^1
    else:
        # The vertices (x, 1), one factor at a time, before product lists
        # the range.
        count = 1
        for _ in range(n - 1):
            count = _within_budget(count * (2 * height + 1), budget, "B complex")
        vectors = product(range(-height, height + 1), repeat=n)
    candidates = []
    one_count = 0  # primitive, last coordinate 1 mod m: vertices uncertified
    for vec in vectors:
        if not any(vec) or math.gcd(*(abs(x) for x in vec)) != 1:
            continue
        last = _last_mod(vec, m)
        if last == 1:
            one_count = _within_budget(one_count + 1, budget, "B complex")
        elif last != 0:
            continue
        candidates.append(vec)
    labels = []
    vertex_witnesses = []
    for vec in candidates:
        wit = completion_witness([vec], n, m)
        if wit is None:
            continue
        vertex_witnesses.append(wit)
        labels.append(tuple(vec))
        _within_budget(len(labels), budget, "B complex")
    nv = len(labels)
    one = [_last_mod(v, m) == 1 for v in labels]
    zeros = [i for i in range(nv) if not one[i]]
    index_pairs = list(combinations(range(n), 2))
    label_index = {v: i for i, v in enumerate(labels)} if n == 2 else None

    def partners(i):
        u = labels[i]
        if n == 2:
            w = vertex_witnesses[i][0]
            found = (label_index.get(v) for v in _unimodular_partners(u, w, height))
            return sorted(j for j in found if j is not None and j > i and one[j] != one[i])
        above = zeros[bisect_right(zeros, i):] if one[i] else range(i + 1, nv)
        out = []
        for j in above:
            v = labels[j]
            if math.gcd(*[u[a] * v[b] - u[b] * v[a] for a, b in index_pairs]) == 1:
                out.append(j)
        return out

    def certify(s):
        if len(s) < n:
            return completion_witness([labels[i] for i in s], n, m)
        if any(one[i] for i in s) and abs(integer_determinant([labels[i] for i in s])) == 1:
            return ()
        return None

    cells, certs = _ordered_simplices(
        vertex_witnesses, n, partners, certify, budget, "B complex"
    )
    witnesses = {(k, s): wit for k, cell in enumerate(certs) for s, wit in enumerate(cell)}
    return TruncatedBComplex(n, m, height, SemisimplicialSet(labels, cells), witnesses)


def probe_report(n, m, height, budget=DEFAULT_SIMPLEX_BUDGET):
    """Connectivity evidence for growing truncations up to the given height.

    Reports the reduced ranks at the final height and the smallest height
    at which the truncation became connected (one component, so reduced
    rank 0 in degree 0), if that happened.  The complex is built and
    certified once, at the final height; the components of every smaller
    truncation are counted on it by TruncatedBComplex.component_counts,
    with no homology.  Evidence only: a truncation can never prove
    connectivity of the untruncated complex.
    """
    if height < 1:
        raise ValueError("height must be positive")
    bx = b_complex_truncated(n, m, height, budget=budget)
    ranks = []
    minimal_connected = None
    if n >= 2:
        counts = bx.component_counts()
        minimal_connected = next((h for h, c in enumerate(counts, 1) if c == 1), None)
        homology = reduced_homology_ranks(bx.complex)
        ranks = [homology.get(k, 0) for k in range(n - 1)]
    return {
        "n": n,
        "m": m,
        "H": height,
        "ranks": ranks,
        "witnesses_failed": 0,
        "minimal_connected_H": minimal_connected,
    }


@dataclass(frozen=True)
class Case1Retraction:
    """Vertex map on the truncated link of a 1-vertex w (case1_retraction).

    mapping sends each link vertex v to v - w (when v has last coordinate
    1 mod m) or to itself.  simplices_checked counts the link vertices and
    the link pairs decided to be edges; degenerate_images counts the edges
    whose two images coincide, which the lemma of case1_retraction rules
    out, so it is 0.
    """

    w: tuple
    mapping: dict
    simplices_checked: int
    degenerate_images: int


def case1_retraction(bx: TruncatedBComplex, w) -> Case1Retraction:
    """Retraction data for the link of w, a vertex with last coordinate 1.

    The link is that of w in the complex that allows several 1-vertices
    per simplex, restricted to the stored vertex set; the map retracts it
    onto the exactly-one complex.  Every link vertex is decided, and the
    pairs of link vertices are decided, in combinations order, until
    CASE1_PAIR_BUDGET vertices and pairs are counted.  The map is
    idempotent with no check: every image has last coordinate 0 mod m, and
    a link vertex with last coordinate 0 maps to itself.

    Link membership is saturation.  Lemma: let S be a set of vectors of
    Z^n, each with last coordinate 0 or 1 mod m, that contains w.  S
    extends to a basis of Z^n whose last coordinates are all 0 or 1 mod m
    exactly when S is saturated.  A subset of a basis is saturated.
    Conversely, complete a saturated S to a basis and replace each
    completion row r by r - r_last w.  Each replacement adds a multiple of
    another basis vector, so the rows still form a basis, and the new last
    coordinate r_last (1 - w_last) is 0 mod m, because w_last is 1 mod m.
    When |S| = n there are no completion rows, and saturated means
    |det| = 1.  So v is a link vertex when {w, v} is saturated, and
    {va, vb} a link edge when {w, va, vb} is.  Three vectors of Z^2 are
    never independent, so link edges are tried only for n >= 3.

    The images need no certificate of their own:
    - {w} and the images of a link simplex S span the same lattice as
      {w} and S, since each image is v or v - w.  So that set is saturated,
      and w is its only vector of last coordinate 1 mod m.  The completion
      of the lemma, rows r -> r - r_last w, then gives a basis with exactly
      one last coordinate 1 mod m: the image lies in the exactly-one
      complex.
    - The two images of an edge {va, vb} coincide only when va - vb = +-w,
      which makes {w, va, vb} dependent.  So an edge, being saturated, has
      distinct images.
    """
    m = bx.m
    w = tuple(w)
    if w not in bx.complex.label_index:
        raise ValueError("w is not a vertex of the truncation")
    if _last_mod(w, m) != 1:
        raise ValueError("w must have last coordinate 1 mod m")
    link = [v for v in bx.complex.labels if v != w and is_saturated([w, v])]
    mapping = {
        v: tuple(a - b for a, b in zip(v, w)) if _last_mod(v, m) == 1 else v for v in link
    }
    checked = len(link)
    degenerate = 0
    for va, vb in combinations(link, 2) if bx.n >= 3 else ():
        if checked >= CASE1_PAIR_BUDGET:
            break
        if is_saturated([w, va, vb]):
            degenerate += mapping[va] == mapping[vb]
            checked += 1
    return Case1Retraction(w, mapping, checked, degenerate)
