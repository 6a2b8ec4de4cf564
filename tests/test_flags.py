"""Truncated basis complexes, the ordered-simplex loop, and the reference line complex."""

import hashlib
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as o
import steinberg.flags as flags
from steinberg.errors import BudgetExceededError, DEFAULT_SIMPLEX_BUDGET
from steinberg.flags import (
    b_complex_truncated,
    case1_retraction,
    completion_witness,
    probe_report,
)
from steinberg.complexes import reduced_homology_ranks
from steinberg.linalg.lattices import (
    complete_to_basis,
    integer_determinant,
    is_saturated,
    snf_transform,
)


@pytest.mark.parametrize(
    "n,q,counts",
    [(1, 5, [1]), (2, 2, [3, 6]), (2, 3, [4, 12]), (3, 2, [7, 42, 168])],
)
def test_lines_complex_counts(n, q, counts):
    # the line complex the homology tests rank: ordered tuples of
    # independent lines, (q^n - 1)(q^n - q)...(q^n - q^(k-1)) / (q - 1)^k
    X = o.lines_complex_fq_reference(n, q)
    assert [X.n_cells(k) for k in range(X.dimension + 1)] == counts


def test_lines_complex_budget():
    with pytest.raises(BudgetExceededError):
        o.lines_complex_fq_reference(3, 3, budget=100)


def test_builders_count_vertices_against_budget():
    # vertices only: the two vertices +-1 of Z^1
    with pytest.raises(BudgetExceededError):
        b_complex_truncated(1, 2, 3, budget=1)
    assert b_complex_truncated(1, 2, 3, budget=2).complex.total_cells() == 2
    # below the vertex count, and exactly at the total, of a 1-dimensional build
    X = b_complex_truncated(2, 2, 2).complex
    with pytest.raises(BudgetExceededError):
        b_complex_truncated(2, 2, 2, budget=X.n_cells(0) - 1)
    total = X.total_cells()
    assert b_complex_truncated(2, 2, 2, budget=total).complex.total_cells() == total
    with pytest.raises(BudgetExceededError):
        b_complex_truncated(2, 2, 2, budget=total - 1)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_lines_complex_matches_the_reference(n, q):
    # with every pair listed and a certify that is not decided by pairs
    # (three lines can be pairwise but not jointly independent), one test
    # per set lists the cells the per-ordering scan listed, in its order
    ref = o.lines_complex_fq_reference(n, q)
    simplices = {tuple(sorted(c)) for cell in ref.cells for c in cell}
    nv = len(ref.labels)
    cells, _ = flags._ordered_simplices(
        [True] * nv, n, lambda i: range(i + 1, nv),
        lambda s: True if s in simplices else None, DEFAULT_SIMPLEX_BUDGET, "line complex",
    )
    assert cells == ref.cells


def test_b_complex_budget_is_counted_before_listing():
    # (3,2,1) has 26 vertices, 328 edges and 2160 triangles: 2514 cells
    X = b_complex_truncated(3, 2, 1).complex
    assert [X.n_cells(k) for k in range(3)] == [26, 328, 2160]
    assert b_complex_truncated(3, 2, 1, budget=2514).complex.total_cells() == 2514
    with pytest.raises(BudgetExceededError, match="^B complex exceeds budget 2513$"):
        b_complex_truncated(3, 2, 1, budget=2513)
    with pytest.raises(BudgetExceededError, match="^B complex exceeds budget 353$"):
        b_complex_truncated(3, 2, 1, budget=26 + 328 - 1)


def test_completion_witness_decisions():
    # not a vertex: completion of (2, 0) forces 2x = +-1 mod 5
    assert completion_witness([(2, 0)], 2, 5) is None
    # genuine vertex with the last coordinate 1
    wit = completion_witness([(3, 1)], 2, 5)
    assert wit is not None
    # non-primitive rows can never extend
    assert completion_witness([(2, 0)], 2, 2) is None
    # two 1-vertices: rejected, though the pair is saturated, so it is an
    # edge of the complex that allows several (case1_retraction's lemma)
    pair = [(1, 1, 1), (0, 1, 1)]
    assert completion_witness(pair, 3, 2) is None
    assert is_saturated(pair)
    # full-size input needs exactly one 1
    assert completion_witness([(1, 0), (0, 1)], 2, 3) is not None
    assert completion_witness([(0, 1), (1, 0)], 2, 3) is not None
    assert completion_witness([(1, 2), (0, 3)], 2, 3) is None
    # a bad last coordinate disqualifies immediately
    assert completion_witness([(1, 2)], 2, 5) is None


@pytest.mark.parametrize(
    "rows,m,exactly_one,expected",
    [
        ([(2, 0), (0, 1)], 3, True, None),  # det 2
        ([(1, 3), (1, 1)], 3, True, None),  # det -2
        ([(2, 0, 0), (0, 1, 0), (0, 0, 1)], 2, False, None),  # det 2, saturation
        ([(1, 0), (0, 1)], 3, True, ()),  # det 1, one 1-vertex
        ([(3, 1), (1, 0)], 5, True, ()),  # det -1, one 1-vertex
        ([(0, 1, 0), (1, 0, 3), (0, 0, 1)], 3, True, ()),  # det -1
        ([(1, 1), (0, 1)], 2, True, None),  # det 1, two 1-vertices
        ([(1, 1), (0, 1)], 2, False, ()),
        ([(1, 0, 1), (0, 1, 1), (0, 0, 1)], 2, True, None),
        ([(1, 0, 1), (0, 1, 1), (0, 0, 1)], 2, False, ()),
        ([(1, 0), (0, 3)], 3, False, None),  # det 3, under either rule
        ([(1, 0), (0, 3)], 3, True, None),
    ],
)
def test_completion_witness_on_square_input(rows, m, exactly_one, expected):
    # exactly_one=False rows take the rule of a 1-vertex's link, where
    # several 1-vertices may share a basis: case1_retraction decides it by
    # saturation, and a square input is saturated when |det| = 1
    if exactly_one:
        assert completion_witness(rows, len(rows), m) == expected
    else:
        assert is_saturated(rows) == (expected == ())


def certify_unique(vectors, n, m):
    wit = completion_witness(vectors, n, m)
    if wit is None:
        return False
    full = [list(v) for v in vectors] + [list(w) for w in wit]
    st_ = snf_transform(full)
    assert st_.rank == n and all(f == 1 for f in st_.factors)
    lasts = [r[-1] % m for r in full]
    assert sum(1 for c in lasts if c == 1) == 1
    assert all(c in (0, 1) for c in lasts)
    return True


@given(
    st.integers(2, 3),
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(-6, 6), min_size=2, max_size=3),
)
@settings(max_examples=120, deadline=None)
def test_witness_certificates_verify(n, m, vec):
    vec = vec[:n]
    if len(vec) < n:
        return
    certify_unique([tuple(vec)], n, m)


@pytest.mark.parametrize(
    "n,m,height,counts",
    [(2, 2, 1, [8, 24]), (2, 2, 2, [16, 72]), (2, 2, 3, [32, 152]), (2, 3, 1, [5, 12])],
)
def test_b_complex_cell_counts(n, m, height, counts):
    bx = b_complex_truncated(n, m, height)
    X = bx.complex
    assert [X.n_cells(k) for k in range(X.dimension + 1)] == counts
    assert bx.witness_failures == 0
    assert bx.verify_witnesses() is True


def test_b_complex_input_validation():
    with pytest.raises(ValueError):
        b_complex_truncated(0, 2, 1)
    with pytest.raises(ValueError):
        b_complex_truncated(2, 1, 1)
    with pytest.raises(ValueError):
        b_complex_truncated(2, 2, 0)


def test_b_complex_vertices_height_one():
    # every nonzero {-1,0,1} vector is primitive with last coordinate 0 or 1
    # mod 2, and each one extends, so all eight survive as vertices
    bx = b_complex_truncated(2, 2, 1)
    expected = {
        (x, y)
        for x in (-1, 0, 1)
        for y in (-1, 0, 1)
        if (x, y) != (0, 0)
    }
    assert set(bx.complex.labels) == expected


@pytest.mark.parametrize("n,m,height", [(2, 2, 5), (2, 3, 4), (3, 2, 2), (3, 3, 2)])
def test_restriction_is_the_smaller_truncation(n, m, height):
    # every smaller truncation, certificates included, reads off the one
    # build at the largest height
    bx = b_complex_truncated(n, m, height)
    for h in range(1, height):
        sub = o.restrict_reference(bx, h)
        ref = b_complex_truncated(n, m, h)
        assert sub.height == h
        assert sub.complex.labels == ref.complex.labels
        assert sub.complex.cells == ref.complex.cells
        assert list(sub.witnesses.items()) == list(ref.witnesses.items())
    assert o.restrict_reference(bx, height).complex.cells == bx.complex.cells
    with pytest.raises(ValueError):
        o.restrict_reference(bx, 0)
    with pytest.raises(ValueError):
        o.restrict_reference(bx, height + 1)


@pytest.mark.parametrize(
    "n,m,height",
    [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 4), (2, 5, 3),
     (3, 2, 1), (3, 3, 2), (2, 2, 8), (2, 3, 12), (2, 4, 6), (2, 7, 5), (3, 2, 2),
     (3, 4, 2)],
)
def test_b_complex_matches_the_reference(n, m, height):
    # sets certified once, and ruled out by residue count or 2x2 minors
    # before any completion, list the cells the per-ordering scan listed
    # with a completion on every candidate, in order; an increasing index
    # tuple is certified on the same vectors in the same order, so it
    # keeps its witness, and every other ordering carries its set's
    # witness, which verify_witnesses re-checks
    bx = b_complex_truncated(n, m, height)
    ref = o.b_complex_truncated_reference(n, m, height)
    assert bx.complex.labels == ref.complex.labels
    assert bx.complex.cells == ref.complex.cells
    assert len(bx.witnesses) == bx.complex.total_cells()
    increasing = 0
    for k, cell in enumerate(ref.complex.cells):
        for s, simplex in enumerate(cell):
            if list(simplex) == sorted(simplex):
                assert bx.witnesses[(k, s)] == ref.witnesses[(k, s)]
                increasing += 1
    assert increasing > len(bx.complex.labels)
    assert bx.verify_witnesses() is True


def test_witnesses_are_pinned():
    # the reference shares completion_witness, so pin its rows as built when
    # the Smith reduction also tracked V: a composite m, and for n = 3 two
    # completion rows per 0-vertex, read off V^-1 and gathered by U
    witnesses = sorted(b_complex_truncated(3, 4, 2).witnesses.items())
    assert len(witnesses) == 8745
    assert witnesses[:3] == [
        ((0, 0), ((0, 1, 0), (1, 0, 0))),
        ((0, 1), ((1, 0, 1), (-1, 0, 0))),
        ((0, 2), ((1, 0, 0), (2, 1, 0))),
    ]
    digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()
    assert digest == "4bc3d2ba1d454b0dd92af622f318e4257d2fc1b1e39a06642c83976c387a22f9"


def minors_gcd(u, v):
    g = 0
    for i, j in combinations(range(len(u)), 2):
        g = math.gcd(g, u[i] * v[j] - u[j] * v[i])
    return g


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(*[st.lists(st.integers(-20, 20), min_size=n, max_size=n)] * 2)
    )
)
@settings(max_examples=300, deadline=None)
def test_pair_minor_rule_is_saturation(pair):
    # gcd of the 2x2 minors is 1 exactly when {u, v} spans a direct
    # summand of rank 2; dependent pairs have all minors 0
    u, v = pair
    assert (minors_gcd(u, v) == 1) == is_saturated([u, v])


def spy_build(monkeypatch, n, m, height):
    """Build (n, m, height), recording each set handed to certify with its
    answer, and the vectors of each completion_witness call."""
    decided = []
    completed = []
    real_ordered = flags._ordered_simplices
    real_witness = flags.completion_witness

    def ordered(vertex_certs, n, partners, certify, budget, what):
        def spy_certify(s):
            cert = certify(s)
            decided.append((s, cert))
            return cert

        return real_ordered(vertex_certs, n, partners, spy_certify, budget, what)

    def witness(vectors, n, m):
        completed.append(tuple(vectors))
        return real_witness(vectors, n, m)

    monkeypatch.setattr(flags, "_ordered_simplices", ordered)
    monkeypatch.setattr(flags, "completion_witness", witness)
    bx = b_complex_truncated(n, m, height)
    monkeypatch.undo()
    return bx, decided, completed


def expected_pairs(labels, n, m):
    one = [v[-1] % m == 1 for v in labels]
    return [
        (i, j)
        for i, j in combinations(range(len(labels)), 2)
        if one[i] + one[j] < 2
        and (n > 2 or one[i] + one[j] == 1)
        and minors_gcd(labels[i], labels[j]) == 1
    ]


@pytest.mark.parametrize("n,m,height", [(2, 2, 12), (2, 3, 5), (3, 3, 2), (3, 2, 2)])
def test_pair_stage_lists_only_pairs_the_rules_keep(monkeypatch, n, m, height):
    # the pairs handed to certify are exactly the index pairs i < j that
    # pass the residue rule (at most one 1-vertex, and for n = 2 at least
    # one) and the minor rule, in increasing order of (i, j).  For n = 3
    # each reaches completion_witness, on its vectors in index order; for
    # n = 2 a pair is a whole basis, decided by its determinant with no
    # completion_witness call, and each listed pair is a 1-cell with
    # witness ()
    bx, decided, completed = spy_build(monkeypatch, n, m, height)
    labels = bx.complex.labels
    listed = [s for s, _ in decided if len(s) == 2]
    expected = expected_pairs(labels, n, m)
    assert listed == expected
    if n == 2:
        assert not [c for c in completed if len(c) == 2]
        assert all(cert == () for s, cert in decided)
        edges = {tuple(sorted(c)): bx.witnesses[(1, k)] for k, c in enumerate(bx.complex.cells[1])}
        assert all(edges[s] == () for s in listed)
        if (n, m, height) == (2, 2, 12):
            assert len(listed) == 980
    else:
        pairs = [c for c in completed if len(c) == 2]
        assert pairs == [(labels[i], labels[j]) for i, j in expected]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_rank_two_pairs_are_the_unimodular_pairs(monkeypatch, m):
    # for n = 2 the pairs read off the solutions of det = +-1 are the
    # brute-force minor and residue filter over all index pairs, in order
    # (np.nonzero lists the pairs i < j by row, then column; the one 2x2
    # minor of a pair is its determinant)
    for height in range(1, 21):
        bx, decided, _ = spy_build(monkeypatch, 2, m, height)
        labels = bx.complex.labels
        L = np.array(labels, dtype=np.int64)
        det = np.outer(L[:, 0], L[:, 1]) - np.outer(L[:, 1], L[:, 0])
        one = L[:, 1] % m == 1
        keep = np.triu((np.abs(det) == 1) & (one[:, None] != one[None, :]), 1)
        expected = list(zip(*(a.tolist() for a in np.nonzero(keep))))
        if height <= 4:
            assert expected == expected_pairs(labels, 2, m)
        assert [s for s, _ in decided] == expected, height


@pytest.mark.parametrize("n,m,height", [(2, 2, 12), (3, 3, 2), (3, 2, 2), (3, 5, 2)])
def test_full_sets_get_the_completion_answer(monkeypatch, n, m, height):
    # every set of n vectors is decided by its determinant, with no
    # completion_witness call; the answer, certified or rejected, is the
    # one completion_witness gives
    bx, decided, completed = spy_build(monkeypatch, n, m, height)
    labels = bx.complex.labels
    assert not [c for c in completed if len(c) == n]
    full = [(s, cert) for s, cert in decided if len(s) == n]
    assert full
    for s, cert in full:
        assert cert == completion_witness([labels[i] for i in s], n, m), s
    certified = sum(cert is not None for _, cert in full)
    assert certified * math.factorial(n) == bx.complex.n_cells(n - 1)
    if n == 3:
        assert certified < len(full)


def test_verify_witnesses_checks_every_distinct_witness():
    # witnesses are re-checked once per (vertex set, witness), so a
    # corrupted witness on the second ordering of a set is still caught
    bx = b_complex_truncated(3, 2, 1)
    assert bx.verify_witnesses() is True
    first = {}
    for s, simplex in enumerate(bx.complex.cells[1]):
        key = tuple(sorted(simplex))
        if key in first:
            break
        first[key] = s
    assert bx.witnesses[(1, first[key])] == bx.witnesses[(1, s)]
    witnesses = dict(bx.witnesses)
    (row,) = witnesses[(1, s)]
    witnesses[(1, s)] = (tuple(2 * x for x in row),)
    bad = flags.TruncatedBComplex(bx.n, bx.m, bx.height, bx.complex, witnesses)
    with pytest.raises(AssertionError, match="not unimodular"):
        bad.verify_witnesses()


@pytest.mark.parametrize(
    "coefficient, message",
    [(None, "wrong size"), (2, "mod-m rule"), (1, "wrong number of 1-vertices")],
)
def test_verify_witnesses_refuses_each_broken_rule(coefficient, message):
    # At m = 3 a last coordinate can be 2 mod m.  The witness row w of a
    # 1-vertex v becomes w + c v, so the basis stays unimodular and its
    # last coordinates read 1 and c: only the rule named breaks.  With no
    # c, the witness is dropped and the basis is one row short.
    bx = b_complex_truncated(2, 3, 1)
    labels = bx.complex.labels
    s, (i,) = next(
        (s, simplex)
        for s, simplex in enumerate(bx.complex.cells[0])
        if labels[simplex[0]][-1] % 3 == 1
    )
    (w,) = bx.witnesses[(0, s)]
    witnesses = dict(bx.witnesses)
    if coefficient is None:
        witnesses[(0, s)] = ()
    else:
        witnesses[(0, s)] = (tuple(a + coefficient * b for a, b in zip(w, labels[i])),)
    bad = flags.TruncatedBComplex(bx.n, bx.m, bx.height, bx.complex, witnesses)
    with pytest.raises(AssertionError, match=message):
        bad.verify_witnesses()


def test_rules_reject_only_uncompletable_sets_in_rank_four():
    # (4,2,1) lists 1,663,184 ordered simplices, too many to compare with
    # the reference, so both rules are checked against a completion on its
    # vertices: every pair the minor rule rejects, and every 4-set with no
    # 1-vertex, has none
    labels = [
        v for v in product((-1, 0, 1), repeat=4)
        if any(v) and completion_witness([v], 4, 2) is not None
    ]
    assert len(labels) == 80
    rejected = 0
    for u, v in combinations(labels, 2):
        if minors_gcd(u, v) != 1:
            rejected += 1
            assert completion_witness([u, v], 4, 2) is None
    assert rejected > 0
    zeros = [v for v in labels if v[-1] % 2 == 0]
    for s in combinations(zeros, 4):
        assert completion_witness(list(s), 4, 2) is None


@pytest.mark.parametrize(
    "n,m,height,rank",
    [(2, 2, 5, 0), (2, 3, 3, 2), (2, 3, 12, 16), (2, 4, 6, 6), (2, 5, 6, 0), (2, 7, 5, 0),
     (3, 3, 2, 0), (3, 4, 2, 0)],
)
def test_component_counts_give_degree_zero(n, m, height, rank):
    # components - 1 is the reduced rank in degree 0 of every truncation,
    # disconnected ones included; rank is that of the last
    bx = b_complex_truncated(n, m, height)
    counts = bx.component_counts()
    assert len(counts) == height
    for h, count in enumerate(counts, 1):
        assert count - 1 == reduced_homology_ranks(o.restrict_reference(bx, h).complex).get(0, 0), h
    assert counts[-1] - 1 == rank


@pytest.mark.parametrize(
    "n,m,height,ranks,minimal",
    [(1, 2, 3, [], None), (2, 3, 6, [4], 1), (3, 3, 2, [0, 320], 1)],
)
def test_probe_report_matches_per_height_builds(n, m, height, ranks, minimal):
    report = probe_report(n, m, height)
    assert report == o.probe_report_per_height(n, m, height)
    assert report["ranks"] == ranks
    assert report["minimal_connected_H"] == minimal


def test_connectivity_probe_and_report():
    bx = b_complex_truncated(2, 2, 2)
    assert reduced_homology_ranks(bx.complex) == {0: 0, 1: 57}
    report = probe_report(2, 2, 3)
    assert report["minimal_connected_H"] == 1
    assert report["ranks"] == [0]
    assert report["witnesses_failed"] == 0


def test_case1_retraction_on_small_link():
    bx = b_complex_truncated(2, 2, 3)
    ret = case1_retraction(bx, (0, 1))
    assert ret.degenerate_images == 0
    assert len(ret.mapping) == 14
    moved = [v for v, img in ret.mapping.items() if img != v]
    assert all(v[-1] % 2 == 1 for v in moved)
    assert all(img[-1] % 2 == 0 for img in ret.mapping.values())
    # idempotent: applying the defining rule to an image changes nothing
    for img in ret.mapping.values():
        if img in ret.mapping:
            assert ret.mapping[img] == img
    # the images beyond the truncation bound, in link order
    out = [img for img in ret.mapping.values() if max(abs(a) for a in img) > bx.height]
    assert tuple(dict.fromkeys(out)) == ((-1, -4), (1, -4))


def test_case1_retraction_rejects_bad_center():
    bx = b_complex_truncated(2, 2, 2)
    with pytest.raises(ValueError):
        case1_retraction(bx, (9, 9))
    with pytest.raises(ValueError):
        case1_retraction(bx, (1, 0))  # stored vertex but last coordinate 0


def test_case1_retraction_rank_three():
    bx = b_complex_truncated(3, 2, 1)
    ret = case1_retraction(bx, (0, 0, 1))
    assert ret.simplices_checked > 0
    assert ret.degenerate_images == 0
    assert all(v[-1] % 2 == 0 for v in ret.mapping.values())


# (n, m, height, w, SHA-256 of the sorted mapping items, simplices_checked,
# degenerate_images), taken when case1_retraction still decided the link
# with a completion in the relaxed complex.  The last two w are the first
# 1-vertex of their truncation in label order.
CASE1_PINS = [
    (2, 2, 3, (0, 1), "3d0c6bc9fc0131f5b355622ac0cfc404b337d44a9947d68194eefbea93beac65", 14, 0),
    (3, 2, 1, (0, 0, 1),
     "1170d0c53cb9dcaf3939ca354cb45ffb06e5d027df8563c408f710cd26f102dd", 204, 0),
    (3, 3, 2, (-2, -2, 1),
     "e8875f1e4bc2b6449cfbc3c21c0294b36c75e10f37b8f829e3c5aed552a4463a", 236, 0),
    (3, 2, 2, (-2, -2, -1),
     "aae78e656193783da9636d23e395f9570916d94852cbb41485d789b24ebdff3a", 514, 0),
]
CASE1_IDS = ["{}-{}-{}".format(*pin) for pin in CASE1_PINS]


@pytest.mark.parametrize("n,m,height,w,digest,checked,degenerate", CASE1_PINS, ids=CASE1_IDS)
def test_case1_retraction_is_pinned(n, m, height, w, digest, checked, degenerate):
    bx = b_complex_truncated(n, m, height)
    ret = case1_retraction(bx, w)
    assert hashlib.sha256(repr(sorted(ret.mapping.items())).encode()).hexdigest() == digest
    assert (ret.simplices_checked, ret.degenerate_images) == (checked, degenerate)


def test_case1_pair_budget_stops_the_pair_loop(monkeypatch):
    # (3,2,2) checks 514 vertices and pairs at the default cap; a cap of 71
    # stops after 5 pairs, but every one of the 66 link vertices is still
    # mapped, to the pinned images
    n, m, height, w, digest, checked, _ = CASE1_PINS[3]
    bx = b_complex_truncated(n, m, height)
    full = case1_retraction(bx, w)
    assert (len(full.mapping), full.simplices_checked) == (66, checked)
    monkeypatch.setattr(flags, "CASE1_PAIR_BUDGET", 71)
    capped = case1_retraction(bx, w)
    assert capped.simplices_checked == 71
    assert capped.mapping == full.mapping
    assert hashlib.sha256(repr(sorted(capped.mapping.items())).encode()).hexdigest() == digest


def _lemma_completion(s, w, n):
    """s completed to a basis by the lemma of case1_retraction: each
    completion row r becomes r - r_last w."""
    rows = [list(v) for v in s]
    return rows + [[a - r[-1] * b for a, b in zip(r, w)] for r in complete_to_basis(rows, n)]


@pytest.mark.parametrize("n,m,height,w", [pin[:4] for pin in CASE1_PINS], ids=CASE1_IDS)
def test_case1_link_is_decided_by_saturation(n, m, height, w, monkeypatch):
    # the lemma in case1_retraction's docstring, made concrete: each link
    # vertex and each checked pair S, with w, extends to a basis whose last
    # coordinates are 0 or 1 mod m, at least one 1, by a completion of S
    # whose rows r become r - r_last w; a label outside the link has 2x2
    # minors of gcd other than 1 with w.  The images of S, with w, complete
    # the same way to a basis with exactly one last coordinate 1 mod m, and
    # the two images of a pair differ, with no completion_witness call.
    bx = b_complex_truncated(n, m, height)

    def no_witness(*args):
        raise AssertionError("case1_retraction called completion_witness")

    monkeypatch.setattr(flags, "completion_witness", no_witness)
    ret = case1_retraction(bx, w)
    monkeypatch.undo()
    link = list(ret.mapping)
    for v in bx.complex.labels:
        if v != w and v not in ret.mapping:
            assert o.invariant_factors_minors([w, v]) != (1, 1), v
    pairs = [
        (va, vb)
        for va, vb in (combinations(link, 2) if n >= 3 else ())
        if o.invariant_factors_minors([w, va, vb]) == (1, 1, 1)
    ]
    assert len(link) + len(pairs) == ret.simplices_checked
    for s in [[w, v] for v in link] + [[w, va, vb] for va, vb in pairs]:
        full = _lemma_completion(s, w, n)
        assert abs(o.det_leibniz(full)) == 1, s
        lasts = [r[-1] % m for r in full]
        assert set(lasts) <= {0, 1} and 1 in lasts, s
    for va, vb in pairs:
        assert ret.mapping[va] != ret.mapping[vb], (va, vb)
    images = [[ret.mapping[v]] for v in link]
    images += [[ret.mapping[va], ret.mapping[vb]] for va, vb in pairs]
    for img in images:
        full = _lemma_completion([w] + img, w, n)
        assert abs(o.det_leibniz(full)) == 1, img
        assert sorted(r[-1] % m for r in full) == [0] * (n - 1) + [1], img
