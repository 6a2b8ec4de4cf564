"""Semisimplicial sets, chain complexes, and the building construction."""

import itertools
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles as o
import steinberg.complexes as complexes
from steinberg import fields as ff
from steinberg.complexes import (
    ChainComplex,
    SemisimplicialSet,
    chain_complex,
    eliminate_with_clearing,
    group_action,
    reduced_homology_ranks,
    tits_building,
)
from steinberg.errors import BudgetExceededError
from steinberg.flags import b_complex_truncated
from steinberg.linalg import ExactMatrix, rank
from steinberg.stmodule import gl_generators


def interval():
    return SemisimplicialSet(["a", "b"], [[(0,), (1,)], [(0, 1)]])


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        SemisimplicialSet(["a", "a"], [])
    with pytest.raises(ValueError):
        SemisimplicialSet(["a", "b"], [[(0,), (1,)], [(0, 1), (0, 1)]])
    with pytest.raises(ValueError):
        SemisimplicialSet(["a", "b"], [[(0,), (1,)], [(0,)]])
    with pytest.raises(ValueError):
        # edge (0, 1) has no vertex 1 in the 0-cells
        SemisimplicialSet(["a", "b"], [[(0,)], [(0, 1)]])


def test_trailing_empty_levels_are_dropped():
    X = SemisimplicialSet(["a", "b"], [[(0,), (1,)], [(0, 1)], [], []])
    assert X.dimension == 1
    assert X.cells == interval().cells


@pytest.mark.parametrize(
    "labels, vertices",
    [
        (["a"], [(0,), (5,)]),
        (["a", "b"], [(0,), (-1,)]),
        (["a", "b"], [(0,), (True,)]),
        (["a"], [frozenset({0})]),
        (["a"], [range(1)]),
    ],
)
def test_constructor_rejects_vertices_that_name_no_label(labels, vertices):
    # each vertex is (i,) for an int index i of a label: (5,) would be a
    # second vertex for one label, (-1,) would read the last label, and a
    # hashable one-element set or range is not a tuple
    with pytest.raises(ValueError, match="vertex must be"):
        SemisimplicialSet(labels, [vertices])


@pytest.mark.parametrize(
    "labels, cells, bad",
    [
        (["a"], [[[0]]], "0-simplex [0]"),
        (["a"], [[(0,)], [[0, 0]]], "1-simplex [0, 0]"),
        (["a"], [[0]], "0-simplex 0"),
        (["a"], [[([0],)]], "0-simplex ([0],)"),
        (["a", "b"], [[(0,), (1,)], [frozenset({0, 1})]], "1-simplex frozenset({0, 1})"),
    ],
)
def test_constructor_rejects_simplices_that_are_not_tuples(labels, cells, bad):
    # lists are unhashable, an int has no length, and a frozenset has no
    # positions to drop: each is named, not left as a TypeError
    with pytest.raises(ValueError, match=re.escape(f"{bad} is not a tuple")):
        SemisimplicialSet(labels, cells)


@pytest.mark.parametrize(
    "cells, message",
    [
        ([[(0,), (2,)], [(0, 2), (0, 1)]], "face (1,) of (0, 1) missing"),
        (
            [[(0,), (1,), (2,)], [(0, 1), (1, 2)], [(0, 1, 2)]],
            "face (0, 2) of (0, 1, 2) missing",
        ),
    ],
)
def test_missing_face_names_the_face_and_its_simplex(cells, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SemisimplicialSet(["a", "b", "c"], cells)


def assert_face_identities(X):
    """d_i d_j = d_{j-1} d_i for i < j on every simplex, read from X.faces.

    Returns the number of identities checked (0 below dimension 2).
    """
    checked = 0
    for k in range(2, len(X.cells)):
        lower = [o.simplex_faces(X, k - 1, t) for t in range(X.n_cells(k - 1))]
        for row in (o.simplex_faces(X, k, s) for s in range(X.n_cells(k))):
            for j in range(1, k + 1):
                for i in range(j):
                    assert lower[row[j]][i] == lower[row[i]][j - 1]
                    checked += 1
    return checked


def test_interval_chain_complex():
    cc = chain_complex(interval())
    assert o.first_nonzero_composite(cc) is None
    assert cc.dims == (2, 1)
    assert reduced_homology_ranks(interval()) == {0: 0, 1: 0}
    assert o.euler_characteristic(interval()) == 0


def closed_tuple_sets(max_vertices=5, max_arity=4, unique=True):
    """Random (nv, cells): ordered tuples of vertices, distinct if unique.

    Every vertex is a 0-simplex, and each drawn tuple brings along every
    tuple obtained from it by deleting positions, so faces are closed.
    """

    def build(nv):
        tuple_sets = st.lists(
            st.lists(
                st.integers(min_value=0, max_value=nv - 1),
                min_size=1,
                max_size=min(nv, max_arity) if unique else max_arity,
                unique=unique,
            ),
            max_size=6,
        )

        def close(tops):
            cells = {(v,) for v in range(nv)}
            for top in tops:
                for size in range(2, len(top) + 1):
                    cells.update(itertools.combinations(top, size))
            return nv, cells

        return tuple_sets.map(close)

    return st.integers(min_value=1, max_value=max_vertices).flatmap(build)


@given(closed_tuple_sets())
@settings(max_examples=80, deadline=None)
def test_reduced_homology_matches_dense_oracle(drawn):
    nv, cells = drawn
    by_dim = [
        sorted(c for c in cells if len(c) == k + 1)
        for k in range(max(len(c) for c in cells))
    ]
    X = SemisimplicialSet(range(nv), by_dim)
    for k in range(1, len(by_dim)):
        face_rows = [o.simplex_faces(X, k, t) for t in range(len(by_dim[k]))]
        for s, row in zip(by_dim[k], face_rows):
            assert row == tuple(X.index[k - 1][s[:i] + s[i + 1 :]] for i in range(k + 1))
    assert_face_identities(X)
    assert o.first_nonzero_composite(chain_complex(X)) is None
    # Dense reduced boundaries, built straight from the tuples: the
    # augmentation row, then the alternating face sums.
    bnd = [[[1] * len(by_dim[0])]]
    for k in range(1, len(by_dim)):
        row_of = {f: i for i, f in enumerate(by_dim[k - 1])}
        m = [[0] * len(by_dim[k]) for _ in by_dim[k - 1]]
        for j, s in enumerate(by_dim[k]):
            for i in range(k + 1):
                m[row_of[s[:i] + s[i + 1 :]]][j] += (-1) ** i
        bnd.append(m)
    ranks = [o.rank_fraction(m) for m in bnd] + [0]
    expected = {k: len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(len(by_dim))}
    assert reduced_homology_ranks(X) == expected
    # Euler-Poincare: the cell counts and the ranks give the same sum
    assert o.euler_characteristic(X) == sum((-1) ** k * r for k, r in expected.items())


@pytest.mark.parametrize(
    "n,q,counts",
    [
        (2, 2, [3]),
        (2, 3, [4]),
        (2, 5, [6]),
        (3, 2, [14, 21]),
        (3, 3, [26, 52]),
        (4, 2, [65, 315, 315]),
        (3, 8, [146, 657]),
        (3, 9, [182, 910]),
        (4, 4, [527, 5355, 8925]),
        (4, 5, [1118, 14508, 29016]),
        (5, 2, [372, 4650, 13020, 9765]),
    ],
)
def test_building_cell_counts(n, q, counts):
    X = tits_building(n, q)
    got = [X.n_cells(k) for k in range(X.dimension + 1)]
    assert got == counts
    # cross-check each level against flag counts by dimension signature
    for k in range(n - 1):
        total = 0
        for dims in itertools.combinations(range(1, n), k + 1):
            total += o.flag_count(n, q, dims)
        assert got[k] == total


@pytest.mark.parametrize(
    "n,q",
    [
        (2, 2), (2, 9), (3, 2), (3, 3), (3, 4), (3, 5), (3, 7), (3, 8), (3, 9),
        (4, 2), (4, 3), (4, 4), (5, 2),
    ],
)
def test_building_matches_pairwise_rref_reference(n, q):
    X = tits_building(n, q)
    ref = o.tits_building_reference(n, q)
    assert X.labels == ref.labels
    assert X.cells == ref.cells
    assert X.faces == ref.faces


@pytest.mark.parametrize("n,q", [(3, 2), (3, 4), (4, 3), (3, 9)])
def test_building_keeps_its_line_incidence(n, q):
    # point: every nonzero vector to the label of its line; above: bit j
    # of label i set iff label j has dimension 2 or more and contains it
    X = tits_building(n, q)
    field = ff.finite_field(q)
    vectors = [v for v in itertools.product(range(q), repeat=n) if any(v)]
    assert X.point == {v: X.label_index[o.rref_reference(field, [v])] for v in vectors}
    outer = [(j, key) for j, key in enumerate(X.labels) if len(key) >= 2]
    assert X.above == [
        sum(1 << j for j, key in outer if o.contains_reference(field, key, inner))
        for inner in X.labels
    ]


def test_face_identities_in_building_and_b_complex():
    assert assert_face_identities(tits_building(3, 3)) == 0
    assert assert_face_identities(b_complex_truncated(2, 2, 3).complex) == 0
    # the 2-dimensional ones, where the identities say something
    assert assert_face_identities(tits_building(4, 2)) == 3 * 315
    assert assert_face_identities(b_complex_truncated(3, 2, 1).complex) == 3 * 2160


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_building_boundaries_compose_to_zero(n, q):
    assert o.first_nonzero_composite(chain_complex(tits_building(n, q))) is None


def triangle():
    return SemisimplicialSet(
        ["a", "b", "c"], [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
    )


def with_entry(matrix, i, j, value):
    rows = [dict(r) for r in matrix.row_dicts]
    rows[i][j] = value
    return ExactMatrix(matrix.rows, matrix.cols, tuple(rows))


def first_entry(matrix):
    return next((i, j, v) for i, r in enumerate(matrix.row_dicts) for j, v in r.items())


@pytest.mark.parametrize("degree", [1, 2])
def test_d_squared_oracle_names_degree_of_flipped_sign(degree):
    cc = chain_complex(triangle())
    assert o.first_nonzero_composite(cc) is None
    i, j, v = first_entry(cc.boundaries[degree])
    mats = list(cc.boundaries)
    mats[degree] = with_entry(mats[degree], i, j, -v)
    assert o.first_nonzero_composite(ChainComplex(cc.dims, tuple(mats))) == degree


def test_solomon_tits_rank_of_largest_building():
    # q^(n(n-1)/2) = 2^10; d3 of this building is 13020 x 9765
    assert reduced_homology_ranks(tits_building(5, 2)) == {0: 0, 1: 0, 2: 0, 3: 1024}


# Every building and flags complex the other tests build.
BUILDINGS = [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 9), (3, 2), (3, 3), (3, 4), (3, 5), (3, 7),
    (3, 8), (3, 9), (4, 2), (4, 3), (4, 4), (4, 5), (5, 2),
]
B_COMPLEXES = [(2, 2, 5), (2, 3, 4), (2, 5, 3), (3, 2, 2), (3, 3, 2)]
LINES_COMPLEXES = [(1, 5), (2, 2), (2, 3), (3, 2)]


def circle():
    # the boundary of a triangle: reduced homology Z in degree 1 only
    return SemisimplicialSet(["a", "b", "c"], [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]])


@pytest.mark.parametrize("n,q", BUILDINGS)
def test_building_homology_matches_reference(n, q):
    X = tits_building(n, q)
    assert reduced_homology_ranks(X) == o.reduced_homology_ranks_reference(X)


@pytest.mark.parametrize("n,m,height", B_COMPLEXES)
def test_b_complex_homology_matches_reference_at_every_height(n, m, height):
    bx = b_complex_truncated(n, m, height)
    for h in range(1, height + 1):
        X = o.restrict_reference(bx, h).complex
        assert reduced_homology_ranks(X) == o.reduced_homology_ranks_reference(X), h


@pytest.mark.parametrize("n,q", LINES_COMPLEXES)
def test_lines_complex_homology_matches_reference(n, q):
    X = o.lines_complex_fq_reference(n, q)
    assert reduced_homology_ranks(X) == o.reduced_homology_ranks_reference(X)


def assert_chain_complex_matches_reference(X):
    """chain_complex(X) has the reference's rows: nonzero ints, columns in range."""
    cc = chain_complex(X)
    ref = o.chain_complex_reference(X)
    assert cc.dims == ref.dims
    for got, want in zip(cc.boundaries, ref.boundaries, strict=True):
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.row_dicts == want.row_dicts
        for row in got.row_dicts:
            assert all(type(v) is int and v for v in row.values())
            assert all(0 <= j < got.cols for j in row)


def b_complex(n, m, height):
    return b_complex_truncated(n, m, height).complex


@pytest.mark.parametrize(
    "make, args",
    [pytest.param(tits_building, a, id="building-%d-%d" % a) for a in BUILDINGS]
    + [pytest.param(b_complex, a, id="b-complex-%d-%d-%d" % a) for a in B_COMPLEXES]
    + [
        pytest.param(o.lines_complex_fq_reference, a, id="lines-%d-%d" % a)
        for a in LINES_COMPLEXES
    ],
)
def test_chain_complex_matches_the_reference_built_from_tuples(make, args):
    assert_chain_complex_matches_reference(make(*args))


@given(closed_tuple_sets(unique=False))
@settings(max_examples=80, deadline=None)
def test_a_simplex_that_repeats_a_vertex_is_refused(drawn):
    # a drawn tuple that repeats a vertex brings along that vertex's edge
    # (a, a), which the constructor refuses; every other set is built and
    # has the reference's rows and ranks
    nv, cells = drawn
    by_dim = [
        sorted(c for c in cells if len(c) == k + 1)
        for k in range(max(len(c) for c in cells))
    ]
    if any(len(set(c)) < len(c) for c in cells):
        first = next(c for c in by_dim[1] if c[0] == c[1])
        with pytest.raises(ValueError, match=re.escape(f"edge {first} repeats a vertex")):
            SemisimplicialSet(range(nv), by_dim)
        return
    X = SemisimplicialSet(range(nv), by_dim)
    assert_chain_complex_matches_reference(X)
    assert reduced_homology_ranks(X) == o.reduced_homology_ranks_reference(X)


@pytest.mark.parametrize(
    "cells, edge",
    [
        ([[(0,)], [(0, 0)]], (0, 0)),
        ([[(0,), (1,)], [(0, 1), (1, 0), (1, 1)], [(0, 1, 1)]], (1, 1)),
    ],
    ids=["loop", "in-a-triangle"],
)
def test_a_loop_is_refused_at_its_edge(cells, edge):
    # a simplex that repeats a vertex is refused at the edge it brings
    # along, even when the repeat sits in a higher simplex
    with pytest.raises(ValueError, match=re.escape(f"edge {edge} repeats a vertex")):
        SemisimplicialSet(range(len(cells[0])), cells)


def spy_on_pivot_columns(monkeypatch):
    """Record (rows, pivots) for every elimination reduced_homology_ranks makes."""
    calls = []
    real = complexes.pivot_columns

    def spy(ncols, rows):
        handed = [dict(r) for r in rows]
        pivots = real(ncols, rows)
        calls.append((handed, pivots))
        return pivots

    monkeypatch.setattr(complexes, "pivot_columns", spy)
    return calls


def test_clearing_keeps_only_the_rows_it_must(monkeypatch):
    # At (5,2) the augmentation clears vertex 0, the pivots of d1 clear
    # rows of d2, and those of d2 clear rows of d3.  Degree k keeps
    # n_k - rank d_k rows; below the top the homology vanishes, so every
    # kept row becomes a pivot, and the top degree is never eliminated.
    calls = spy_on_pivot_columns(monkeypatch)
    assert reduced_homology_ranks(tits_building(5, 2)) == {0: 0, 1: 0, 2: 0, 3: 1024}
    kept = [len(rows) for rows, _ in calls]
    assert kept == [372 - 1, 4650 - 371, 13020 - 4279] == [371, 4279, 8741]
    assert [len(pivots) for _, pivots in calls] == kept


@pytest.mark.parametrize("n,q", [(3, 3), (4, 3), (5, 2)])
def test_clearing_releases_what_it_eliminates_and_keeps_the_next_rank(n, q):
    # degrees n-3 eliminates up to the degree below the top; the rows it
    # clears from the top boundary lie in the span of the rows it keeps
    # ranked first: elimination takes over the rows it ranks
    full = chain_complex(tits_building(n, q)).boundaries
    want = [rank(full[k]) for k in range(1, n - 2)]
    boundaries = list(full)
    ranks, cleared = eliminate_with_clearing(boundaries, n - 3)
    assert ranks == want
    assert boundaries[1 : n - 2] == [None] * (n - 3)
    assert boundaries[0] is full[0] and boundaries[n - 2] is full[n - 2]
    top = full[n - 2]
    assert len(cleared) == (ranks[-1] if ranks else 1)
    kept = [r for f, r in enumerate(top.row_dicts) if f not in cleared]
    assert rank(ExactMatrix(len(kept), top.cols, kept)) == rank(top)


@pytest.mark.parametrize(
    "make,zero_rows",
    [(circle, [0]), (lambda: b_complex_truncated(2, 4, 6).complex, [6]),
     (lambda: b_complex_truncated(3, 3, 2).complex, [0, 320])],
)
def test_degree_k_keeps_exactly_beta_k_rows_that_reduce_to_zero(make, zero_rows, monkeypatch):
    # (2,4,6) is disconnected (beta_0 = 6); (3,3,2) has homology below its top
    calls = spy_on_pivot_columns(monkeypatch)
    ranks = reduced_homology_ranks(make())
    assert [len(rows) - len(pivots) for rows, pivots in calls] == zero_rows
    assert zero_rows == [ranks[k] for k in range(len(calls))]


def simplicial_complexes(max_vertices=7):
    """Random simplicial complexes: random facets, closed under faces."""

    def build(nv):
        facets = st.lists(
            st.sets(st.integers(min_value=0, max_value=nv - 1), min_size=1), max_size=5
        )

        def close(tops):
            cells = {(v,) for v in range(nv)}
            for top in tops:
                for size in range(2, len(top) + 1):
                    cells.update(itertools.combinations(sorted(top), size))
            by_dim = [[] for _ in range(max(len(c) for c in cells))]
            for c in sorted(cells):
                by_dim[len(c) - 1].append(c)
            return SemisimplicialSet(range(nv), by_dim)

        return facets.map(close)

    return st.integers(min_value=1, max_value=max_vertices).flatmap(build)


@given(simplicial_complexes())
@settings(max_examples=150, deadline=None)
def test_homology_of_random_complexes_matches_reference(X):
    assert reduced_homology_ranks(X) == o.reduced_homology_ranks_reference(X)


@pytest.mark.parametrize(
    "make",
    [triangle, lambda: tits_building(3, 3), lambda: tits_building(4, 2),
     lambda: b_complex_truncated(2, 2, 3).complex, lambda: b_complex_truncated(3, 2, 1).complex],
)
def test_eliminated_rows_are_the_checked_boundary_rows(make, monkeypatch):
    # the rows ranked in degree k are the rows of the boundary as built, in
    # order, minus the cleared ones; elimination takes those rows over, so
    # they are compared with a snapshot, and the complex is not mutated
    built = []

    def keep(X):
        cc = chain_complex(X)
        built.append([[dict(r) for r in d.row_dicts] for d in cc.boundaries])
        return cc

    monkeypatch.setattr(complexes, "chain_complex", keep)
    calls = spy_on_pivot_columns(monkeypatch)
    X = make()
    cells = [list(c) for c in X.cells]
    faces = [None] + [[list(col) for col in f] for f in X.faces[1:]]
    reduced_homology_ranks(X)
    [before] = built
    assert len(calls) == X.dimension
    cleared = {0}
    for k, (rows, pivots) in enumerate(calls):
        assert rows == [r for f, r in enumerate(before[k + 1]) if f not in cleared]
        cleared = set(pivots)
    assert X.cells == cells and X.faces == faces


def test_building_rejects_small_rank():
    with pytest.raises(ValueError):
        tits_building(1, 2)


def test_building_budget_guard():
    with pytest.raises(BudgetExceededError):
        tits_building(3, 3, budget=50)


@pytest.mark.parametrize("n,q", [(7, 2), (9, 9), (5, 3), (6, 2), (200, 2)])
def test_building_budget_is_checked_before_enumeration(n, q):
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="budget"):
        tits_building(n, q)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n,q", [(2, 2), (3, 3), (4, 2), (4, 3)])
def test_building_budget_is_exact(n, q):
    # the closed-form count against the flag-type sum, at the boundary
    total = sum(
        o.flag_count(n, q, dims)
        for k in range(1, n)
        for dims in itertools.combinations(range(1, n), k)
    )
    assert tits_building(n, q, budget=total).total_cells() == total
    with pytest.raises(BudgetExceededError):
        tits_building(n, q, budget=total - 1)


def permutation_matrix(perm):
    # column s holds a 1 in row perm[s]
    m = [[0] * len(perm) for _ in perm]
    for s, t in enumerate(perm):
        m[t][s] = 1
    return m


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


CYCLE3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_group_action_validation():
    X = tits_building(2, 3)
    with pytest.raises(ValueError, match="not invertible"):
        group_action(X, 3, [[[1, 0], [0, 0]]])
    with pytest.raises(ValueError, match="2 x 2 integer matrix"):
        group_action(X, 3, [[[1, 0, 0]]])
    perms = group_action(X, 3, [[[1, 1], [0, 1]]])
    m = permutation_matrix(perms[0])
    assert sorted(sum(col) for col in zip(*m)) == [1, 1, 1, 1]
    B = tits_building(3, 2)
    # one line of F_2^3, which the 3-cycle moves off the complex
    with pytest.raises(ValueError, match="leaves the complex"):
        group_action(SemisimplicialSet(B.labels[:1], [[(0,)]]), 2, [CYCLE3])
    # every vertex, but one chamber short: the 3-cycle fixes no flag
    short = SemisimplicialSet(B.labels, [B.cells[0], B.cells[1][1:]])
    with pytest.raises(ValueError, match="does not permute chambers"):
        group_action(short, 2, [CYCLE3])
    # over F_4 and F_9 an entry is an element code, not an integer mod q:
    # -1 is 1 in F_4 and the code 2 in F_9, which x % q would misread
    for q, code in ((4, 1), (9, 2)):
        Y = tits_building(2, q)
        with pytest.raises(ValueError, match=f"entry -1 is not an element of F_{q}"):
            group_action(Y, q, [[[-1, 0], [0, 1]]])
        with pytest.raises(ValueError, match=f"entry {q} is not an element of F_{q}"):
            group_action(Y, q, [[[1, q], [0, 1]]])
        group_action(Y, q, [[[code, 0], [0, 1]]])
    # a prime q still reduces every integer entry
    assert group_action(X, 3, [[[-1, 0], [0, 1]]]) == group_action(X, 3, [[[2, 0], [0, 1]]])


def test_action_commutes_with_faces_in_building():
    # the package's chamber map against the oracle's vertex-built levels
    X = tits_building(3, 2)
    [perm] = group_action(X, 2, [CYCLE3])
    [levels] = o.action_levels(X, 2, [CYCLE3])
    assert levels[X.dimension] == perm
    cc = chain_complex(X)
    for k in range(1, X.dimension + 1):
        d = o.dense_of(cc.boundaries[k])
        left = matmul(d, permutation_matrix(levels[k]))
        right = matmul(permutation_matrix(levels[k - 1]), d)
        assert left == right


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2)])
def test_action_permutes_levels_and_commutes_with_faces(n, q):
    # what group_action does not check at run time: each simplex is a face
    # of a chamber, and the chamber map is a bijection that commutes with
    # the faces of every level, mapped through one vertex map
    X = tits_building(n, q)
    for k in range(X.dimension):
        assert set().union(*X.faces[k + 1]) == set(range(X.n_cells(k)))
    gens = gl_generators(n, q)
    for perm, levels in zip(group_action(X, q, gens), o.action_levels(X, q, gens), strict=True):
        assert levels[X.dimension] == perm
        for k, level in enumerate(levels):
            assert sorted(level) == list(range(X.n_cells(k)))
            if k:
                face_rows = (o.simplex_faces(X, k, t) for t in range(X.n_cells(k)))
                for s, row in enumerate(face_rows):
                    image_faces = o.simplex_faces(X, k, level[s])
                    assert [levels[k - 1][f] for f in row] == list(image_faces)
