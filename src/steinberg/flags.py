"""Flags of direct summands of Z^n, line complexes, and truncated B complexes.

Two finite models live here.  lines_complex_fq is the ordered complex of
independent line tuples in F_q^n.  b_complex_truncated is a height
truncation of the complex whose simplices are ordered tuples of vectors in
Z^n extendable to a basis in which every vector has last coordinate 0 or 1
mod m and exactly one has last coordinate 1.  Membership is decided
exactly: a completion certificate is constructed (or proven impossible)
by unimodular row reduction on the last-coordinate values, so no witness
search can run out of budget.

case1_retraction implements the vertex map v -> v - w (for v with last
coordinate 1 mod m) on the link of a 1-vertex w inside the relaxed
complex where several last coordinates 1 are allowed in one simplex; its
images land in the exactly-one complex and are re-certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

from . import fields as ff
from .complexes import SemisimplicialSet, reduced_homology_ranks
from .errors import BudgetExceededError, DEFAULT_SIMPLEX_BUDGET
from .linalg.lattices import (
    complete_to_basis,
    in_row_lattice,
    is_saturated,
    solve_row_combination,
)


@dataclass(frozen=True)
class IntegerFlag:
    """Strictly increasing chain of proper nonzero direct summands of Z^n.

    Each step is a tuple of integer basis rows.  Validation: rows are
    independent, the row lattice is a direct summand (all Smith invariant
    factors 1), ranks strictly increase, and each step is contained in the
    next.
    """

    n: int
    steps: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient rank must be positive")
        prev_rows = None
        prev_rank = 0
        for step in self.steps:
            rows = [list(r) for r in step]
            if not rows or any(len(r) != self.n for r in rows):
                raise ValueError("each step needs rows of length n")
            if not (prev_rank < len(rows) < self.n):
                raise ValueError("step ranks must strictly increase and stay proper")
            if not is_saturated(rows):
                raise ValueError("step is not a direct summand of Z^n")
            if prev_rows is not None:
                for r in prev_rows:
                    if not in_row_lattice(rows, r):
                        raise ValueError("steps are not nested")
            prev_rows = rows
            prev_rank = len(rows)


def integer_flag(n, steps) -> IntegerFlag:
    return IntegerFlag(n, tuple(tuple(tuple(int(x) for x in r) for r in s) for s in steps))


def projective_splitting(flag: IntegerFlag):
    """Summands (P_0, ..., P_r) with step_i = P_0 + ... + P_i (direct).

    The last summand completes the final step to all of Z^n; the empty
    flag returns the single summand Z^n.  Output is verified: the stacked
    summand rows form a basis of Z^n and each prefix spans its step.
    """
    n = flag.n
    adapted = []
    parts = []
    for step in flag.steps:
        rows = [list(r) for r in step]
        if not adapted:
            new_rows = rows
        else:
            # Coordinates of the previous adapted basis inside this step's
            # basis form a saturated matrix; complete it and push back.
            coords = []
            for b in adapted:
                x = solve_row_combination(rows, b)
                if x is None:
                    raise AssertionError("flag nesting lost during splitting")
                coords.append(x)
            extra = complete_to_basis(coords, len(rows))
            if extra is None:
                raise AssertionError("saturation lost inside larger step")
            new_rows = [
                [sum(c * rows[j][i] for j, c in enumerate(y)) for i in range(n)]
                for y in extra
            ]
        parts.append(tuple(tuple(r) for r in new_rows))
        adapted.extend(new_rows)
    tail = complete_to_basis(adapted, n)
    if tail is None:
        raise AssertionError("adapted basis failed to complete")
    parts.append(tuple(tuple(r) for r in tail))
    stacked = [list(r) for part in parts for r in part]
    if not (len(stacked) == n and is_saturated(stacked)):
        raise AssertionError("splitting is not a direct sum decomposition")
    prefix = []
    for i, step in enumerate(flag.steps):
        prefix.extend(parts[i])
        rows = [list(r) for r in step]
        if not all(in_row_lattice(rows, list(p)) for p in prefix):
            raise AssertionError("prefix exceeds its flag step")
        if not all(in_row_lattice([list(p) for p in prefix], r) for r in rows):
            raise AssertionError("prefix does not fill its flag step")
    return tuple(parts)


def lines_complex_fq(n, q, budget=DEFAULT_SIMPLEX_BUDGET) -> SemisimplicialSet:
    """Ordered tuples of independent lines in F_q^n as a semisimplicial set.

    A (k-1)-simplex is an ordered k-tuple of distinct lines whose
    generators are linearly independent; over a field this is exactly
    extendability to a full direct-sum line decomposition.
    """
    field = ff.finite_field(q)
    labels = ff.all_subspaces(field, n, 1)
    gens = [list(k[0]) for k in labels]
    cells = [[(i,) for i in range(len(labels))]]
    total = len(labels)
    for size in range(2, n + 1):
        nxt = []
        for simplex in cells[-1]:
            for j in range(len(labels)):
                if j in simplex:
                    continue
                cand = simplex + (j,)
                if ff.matrix_rank(field, [gens[i] for i in cand]) == size:
                    nxt.append(cand)
                    total += 1
                    if total > budget:
                        raise BudgetExceededError(
                            f"line complex exceeds budget {budget}"
                        )
        if not nxt:
            break
        cells.append(nxt)
    return SemisimplicialSet(labels, cells, budget=budget)


def _last_mod(vec, m) -> int:
    return vec[-1] % m


def completion_witness(vectors, n, m, unique=True):
    """Rows completing the given vectors to a basis meeting the mod-m rules.

    Rules on the full basis: every last coordinate is 0 or 1 mod m and,
    when unique=True, exactly one is 1 mod m.  Returns a tuple of rows or
    None when no completion exists; the decision is exact.  With
    unique=False (the relaxed complex) the tuple of given vectors may
    contain several 1-vertices.
    """
    k = len(vectors)
    if not 1 <= k <= n:
        return None
    rows = [list(v) for v in vectors]
    lasts = [_last_mod(v, m) for v in rows]
    if any(c not in (0, 1) for c in lasts):
        return None
    t = sum(1 for c in lasts if c == 1)
    if unique and t >= 2:
        return None
    comp = complete_to_basis(rows, n)
    if comp is None:
        return None
    if k == n:
        return () if (t == 1 or (not unique and t >= 1)) else None
    if t >= 1:
        # Subtract multiples of a 1-vertex to zero every completion value.
        base = rows[lasts.index(1)]
        out = []
        for u in comp:
            c = u[-1]
            out.append([a - c * b for a, b in zip(u, base)])
        witness = out
    else:
        # Euclid on the last coordinates of the completion rows: reduce to
        # a single value g (their gcd), carried by the first row.
        while True:
            nz = [i for i, r in enumerate(comp) if r[-1] != 0]
            if len(nz) <= 1:
                break
            p = min(nz, key=lambda i: (abs(comp[i][-1]), i))
            for i in nz:
                if i == p:
                    continue
                qq = comp[i][-1] // comp[p][-1]
                if qq:
                    comp[i] = [a - qq * b for a, b in zip(comp[i], comp[p])]
        nz = [i for i, r in enumerate(comp) if r[-1] != 0]
        if not nz:
            raise AssertionError("last coordinate vanishes on a full basis")
        comp[0], comp[nz[0]] = comp[nz[0]], comp[0]
        if comp[0][-1] < 0:
            comp[0] = [-a for a in comp[0]]
        g = comp[0][-1]
        if len(comp) == 1:
            if g % m == 1:
                witness = comp
            elif (-g) % m == 1:
                witness = [[-a for a in comp[0]]]
            else:
                return None
        else:
            if math.gcd(g, m) != 1:
                raise AssertionError("completion gcd shares a factor with m")
            y = pow(g % m, -1, m)
            w1 = [y * a + b for a, b in zip(comp[0], comp[1])]
            w2 = [a - g * b for a, b in zip(comp[0], w1)]
            witness = [w1, w2] + comp[2:]
    full = rows + witness
    if not (len(full) == n and is_saturated(full)):
        raise AssertionError("constructed completion is not unimodular")
    wl = [_last_mod(w, m) for w in witness]
    if any(c not in (0, 1) for c in wl):
        raise AssertionError("completion violates the mod-m rule")
    ones = t + sum(1 for c in wl if c == 1)
    if unique and ones != 1:
        raise AssertionError("completion does not isolate one 1-vertex")
    if not unique and ones < 1:
        raise AssertionError("completion lost every 1-vertex")
    return tuple(tuple(w) for w in witness)


@dataclass(frozen=True)
class TruncatedBComplex:
    """Height-H truncation of the exactly-one-1 basis complex over Z^n.

    complex: semisimplicial set of ordered vertex tuples; witnesses maps
    (dim, simplex index) to completion rows certifying extendability
    (completions ignore the height bound).  witness_failures counts
    candidates whose certification could not be decided; the constructive
    decision procedure never leaves any, so it is always 0.
    """

    n: int
    m: int
    height: int
    complex: SemisimplicialSet
    witnesses: dict
    witness_failures: int = 0

    def verify_witnesses(self):
        """Recheck every stored certificate: unimodular and mod-m sound."""
        X = self.complex
        for k, cell in enumerate(X.cells):
            for s, simplex in enumerate(cell):
                vecs = [list(X.labels[i]) for i in simplex]
                wit = self.witnesses[(k, s)]
                full = vecs + [list(w) for w in wit]
                if len(full) != self.n:
                    raise AssertionError("witness has wrong size")
                if not is_saturated(full):
                    raise AssertionError("witness fails unimodularity")
                lasts = [_last_mod(r, self.m) for r in full]
                if any(c not in (0, 1) for c in lasts):
                    raise AssertionError("witness violates mod-m rule")
                if sum(1 for c in lasts if c == 1) != 1:
                    raise AssertionError("witness does not have exactly one 1")
        return True


def b_complex_truncated(n, m, height, budget=DEFAULT_SIMPLEX_BUDGET) -> TruncatedBComplex:
    """All certified simplices on primitive vectors of sup-norm <= height.

    Vertices are primitive vectors with last coordinate 0 or 1 mod m,
    kept only when they certify as 0-simplices.  Higher simplices are
    ordered tuples of distinct vertices; every ordering of a certified
    set appears.  Raises ValueError for height < 1 or m < 2.
    """
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
    total = len(labels)
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
                total += 1
                if total > budget:
                    raise BudgetExceededError(f"B complex exceeds budget {budget}")
        if not nxt:
            break
        cells.append(nxt)
    X = SemisimplicialSet(labels, cells, budget=budget)
    bx = TruncatedBComplex(n, m, height, X, witnesses)
    bx.verify_witnesses()
    return bx


def connectivity_probe(X: SemisimplicialSet, k_max):
    """Reduced homology ranks of X in degrees 0..k_max (missing = 0)."""
    ranks = reduced_homology_ranks(X)
    return {k: ranks.get(k, 0) for k in range(0, k_max + 1)}


def probe_report(n, m, height, budget=DEFAULT_SIMPLEX_BUDGET):
    """Connectivity evidence for growing truncations up to the given height.

    Reports the reduced ranks at the final height and the smallest height
    at which the truncation became connected (reduced rank 0 in degree 0),
    if that happened.  Evidence only: a truncation can never prove
    connectivity of the untruncated complex.
    """
    if height < 1:
        raise ValueError("height must be positive")
    ranks = []
    minimal_connected = None
    for h in range(1, height + 1):
        bx = b_complex_truncated(n, m, h, budget=budget)
        probe = connectivity_probe(bx.complex, max(n - 2, 0)) if n >= 2 else {}
        ranks = [probe[k] for k in sorted(probe)]
        if n >= 2 and minimal_connected is None and probe.get(0) == 0:
            minimal_connected = h
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
    """Vertex map on the truncated relaxed link of a 1-vertex w.

    mapping sends each link vertex v to v - w (when v has last coordinate
    1 mod m) or to itself; every image has last coordinate 0 mod m.
    out_of_height lists images beyond the truncation bound.  Every checked
    link simplex maps to a certified simplex of the exactly-one complex
    joined with w; failures would be recorded but never occur.
    """

    w: tuple
    mapping: dict
    out_of_height: tuple
    simplices_checked: int
    degenerate_images: int


def case1_retraction(bx: TruncatedBComplex, w, pair_budget=20000) -> Case1Retraction:
    """Retraction data for the link of w, a vertex with last coordinate 1.

    The link is taken in the relaxed complex (several 1-vertices allowed
    per simplex) restricted to the stored vertex set; the map retracts it
    onto the exactly-one complex.  Checks: idempotence, image congruence,
    and simplex preservation for all link vertices and sampled link pairs.
    """
    n, m = bx.n, bx.m
    w = tuple(w)
    if w not in bx.complex.label_index:
        raise ValueError("w is not a vertex of the truncation")
    if _last_mod(w, m) != 1:
        raise ValueError("w must have last coordinate 1 mod m")
    link = []
    for v in bx.complex.labels:
        if v == w:
            continue
        if completion_witness([w, v], n, m, unique=False) is not None:
            link.append(v)
    mapping = {}
    for v in link:
        img = tuple(a - b for a, b in zip(v, w)) if _last_mod(v, m) == 1 else v
        if _last_mod(img, m) != 0:
            raise AssertionError("retraction image not congruent to 0")
        mapping[v] = img
    for v, img in mapping.items():
        again = mapping.get(img, img if _last_mod(img, m) == 0 else None)
        if again != img:
            raise AssertionError("retraction is not idempotent")
    out = tuple(
        dict.fromkeys(
            img for img in mapping.values() if max(abs(a) for a in img) > bx.height
        )
    )
    checked = 0
    degenerate = 0
    # Image of a link simplex tau, joined with w, must certify with the
    # exactly-one rule; duplicates in the image collapse the simplex.
    for v in link:
        if completion_witness([w, mapping[v]], n, m) is None:
            raise AssertionError("vertex image fails certification")
        checked += 1
    for va, vb in combinations(link, 2):
        if checked >= pair_budget:
            break
        if completion_witness([w, va, vb], n, m, unique=False) is None:
            continue
        imgs = [mapping[va], mapping[vb]]
        dedup = list(dict.fromkeys(imgs))
        if len(dedup) < len(imgs):
            degenerate += 1
        if completion_witness([w] + dedup, n, m) is None:
            raise AssertionError("pair image fails certification")
        checked += 1
    return Case1Retraction(w, mapping, out, checked, degenerate)
