"""Semisimplicial sets, chain complexes, and the building construction."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

import oracles as o
from steinberg.complexes import (
    SemisimplicialSet,
    chain_complex,
    chain_from_coefficients,
    complex_to_json,
    euler_characteristic,
    group_action,
    reduced_homology_ranks,
    tits_building,
)
from steinberg.errors import BudgetExceededError
from steinberg.linalg import matrix_from_json


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
    with pytest.raises(BudgetExceededError):
        SemisimplicialSet(
            ["a", "b", "c"],
            [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]],
            budget=4,
        )


def test_interval_chain_complex():
    cc = chain_complex(interval(), reduced=True)
    cc.validate()
    assert cc.dims == (2, 1)
    assert reduced_homology_ranks(interval()) == {0: 0, 1: 0}
    assert euler_characteristic(interval(), reduced=True) == 0


def test_unreduced_chain_has_empty_augmentation():
    cc = chain_complex(interval(), reduced=False)
    assert cc.boundary(0).rows == 0
    assert euler_characteristic(interval(), reduced=False) == 1


def closed_tuple_sets(max_vertices=5, max_arity=4):
    """Random semisimplicial sets: ordered tuples of distinct vertices.

    Every vertex is a 0-simplex, and each drawn tuple brings along every
    tuple obtained from it by deleting positions, so faces are closed.
    """

    def build(nv):
        tuple_sets = st.lists(
            st.lists(
                st.integers(min_value=0, max_value=nv - 1),
                min_size=1,
                max_size=min(nv, max_arity),
                unique=True,
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


@pytest.mark.parametrize(
    "n,q,counts",
    [
        (2, 2, [3]),
        (2, 3, [4]),
        (2, 5, [6]),
        (3, 2, [14, 21]),
        (3, 3, [26, 52]),
        (4, 2, [65, 315, 315]),
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


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_building_boundaries_compose_to_zero(n, q):
    chain_complex(tits_building(n, q)).validate()


def test_building_rejects_small_rank():
    with pytest.raises(ValueError):
        tits_building(1, 2)


def test_building_budget_guard():
    with pytest.raises(BudgetExceededError):
        tits_building(3, 3, budget=50)


def test_group_action_validation():
    X = tits_building(2, 3)
    with pytest.raises(ValueError):
        group_action(X, 3, [[[1, 0], [0, 0]]])
    act = group_action(X, 3, [[[1, 1], [0, 1]]])
    m = act.permutation_matrix(0, 0)
    assert sorted(sum(col) for col in zip(*m.to_dense())) == [1, 1, 1, 1]


def test_action_commutes_with_faces_in_building():
    X = tits_building(3, 2)
    act = group_action(X, 2, [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]])
    cc = chain_complex(X, reduced=False)
    for k in range(1, X.dimension + 1):
        left = cc.boundary(k) @ act.permutation_matrix(0, k)
        right = act.permutation_matrix(0, k - 1) @ cc.boundary(k)
        assert left == right


def test_complex_json_round_trip():
    cc = chain_complex(tits_building(3, 2))
    payload = json.loads(complex_to_json(cc))
    assert payload["dims"] == list(cc.dims)
    rebuilt = matrix_from_json(json.dumps(payload["boundaries"][1]))
    assert rebuilt == cc.boundary(1)


def test_chain_from_coefficients_validates_length():
    X = tits_building(2, 2)
    v = chain_from_coefficients(X, 0, [1, -1, 0])
    assert list(v) == [1, -1, 0]
    with pytest.raises(ValueError):
        chain_from_coefficients(X, 0, [1, 2])
