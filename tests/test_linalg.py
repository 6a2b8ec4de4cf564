"""Exact linear algebra: ranks, kernels, Smith forms, determinants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as o
from steinberg.linalg import (
    ExactMatrix,
    backend,
    determinant,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    quotient_dim,
    rank,
    smith_normal_form,
)
from steinberg.linalg.lattices import (
    complete_to_basis,
    in_row_lattice,
    is_saturated,
    snf_transform,
    solve_row_combination,
)

ints = st.integers(min_value=-9, max_value=9)
fracs = st.builds(Fraction, ints, st.integers(min_value=1, max_value=4))


def dense_matrices(entry, max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@given(dense_matrices(fracs))
@settings(max_examples=120, deadline=None)
def test_rank_matches_oracle_and_transpose(dense):
    m = ExactMatrix.from_dense(dense)
    r = rank(m)
    assert r == o.rank_fraction(dense)
    assert r == rank(m.transpose())


@given(dense_matrices(fracs))
@settings(max_examples=120, deadline=None)
def test_kernel_basis_is_exact_and_complete(dense):
    m = ExactMatrix.from_dense(dense)
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for vec in basis:
        assert all(v == 0 for v in m.mul_vector(vec))
    if basis:
        assert o.rank_fraction([list(v) for v in basis]) == len(basis)


@given(dense_matrices(ints, max_dim=4))
@settings(max_examples=100, deadline=None)
def test_smith_factors_divide_and_match_minor_gcds(dense):
    m = ExactMatrix.from_dense(dense)
    factors = smith_normal_form(m)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert factors == o.invariant_factors_minors(dense)


@given(dense_matrices(ints, max_dim=4).filter(lambda d: len(d) == len(d[0])))
@settings(max_examples=100, deadline=None)
def test_determinant_matches_leibniz(dense):
    m = ExactMatrix.from_dense(dense)
    assert determinant(m) == o.det_leibniz(dense)


def test_determinant_rejects_rectangles():
    with pytest.raises(ValueError):
        determinant(ExactMatrix.from_dense([[1, 2]]))


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0), (1, 1), (3, 2)])
def test_smith_of_empty_or_zero_matrix_has_no_factors(rows, cols):
    assert smith_normal_form(ExactMatrix.zero(rows, cols)) == ()


def test_active_backend_reports_name():
    assert backend() == "python"


def test_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix.from_entries(2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        ExactMatrix.from_entries(2, 2, [(2, 0, 1)])
    assert ExactMatrix.from_entries(2, 2, [(0, 0, 0)]).entries == ()


@given(dense_matrices(fracs))
@settings(max_examples=60, deadline=None)
def test_json_round_trip(dense):
    m = ExactMatrix.from_dense(dense)
    again = matrix_from_json(matrix_to_json(m))
    assert again == m


def test_matmul_and_identity():
    a = ExactMatrix.from_dense([[1, 2], [3, 4]])
    b = ExactMatrix.from_dense([[0, 1], [1, 0]])
    assert (a @ b).to_dense() == [[2, 1], [4, 3]]
    assert (a @ ExactMatrix.identity(2)) == a
    with pytest.raises(ValueError):
        a @ ExactMatrix.identity(3)


def test_quotient_dim():
    span = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    sub = [(1, 1, 0)]
    assert quotient_dim(span, sub) == 2
    assert quotient_dim(span, []) == 3
    with pytest.raises(ValueError):
        quotient_dim([(1, 0, 0)], [(0, 1, 0)])


@given(dense_matrices(ints, max_dim=4))
@settings(max_examples=80, deadline=None)
def test_snf_transform_certifies_itself(dense):
    tr = snf_transform(dense)
    n, c = len(dense), len(dense[0])
    # U M V = diag: recompute the product directly
    prod = [
        [
            sum(
                tr.U[i][k] * sum(dense[k][l] * tr.V[l][j] for l in range(c))
                for k in range(n)
            )
            for j in range(c)
        ]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(c):
            expected = tr.diagonal[i] if i == j and i < len(tr.diagonal) else 0
            assert prod[i][j] == expected
    assert abs(int(o.det_leibniz(tr.U))) == 1
    assert abs(int(o.det_leibniz(tr.V))) == 1


def test_row_combination_solving():
    basis = [[1, 2, 0], [0, 0, 3]]
    assert solve_row_combination(basis, [2, 4, 3]) == (2, 1)
    assert solve_row_combination(basis, [1, 2, 1]) is None
    assert solve_row_combination(basis, [0, 1, 0]) is None
    assert in_row_lattice(basis, [1, 2, -3])


def test_saturation_and_completion():
    assert is_saturated([[1, 2, 3]])
    assert not is_saturated([[2, 4, 6]])
    assert not is_saturated([[1, 0, 0], [1, 0, 0]])
    extra = complete_to_basis([[1, 2, 3]], 3)
    stacked = [[1, 2, 3]] + [list(r) for r in extra]
    assert abs(int(o.det_leibniz(stacked))) == 1
    assert complete_to_basis([[2, 0]], 2) is None
    ident = complete_to_basis([], 2)
    assert [list(r) for r in ident] == [[1, 0], [0, 1]]


@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=2))
@settings(max_examples=80, deadline=None)
def test_completion_always_unimodular_when_saturated(rows):
    if not is_saturated(rows):
        return
    extra = complete_to_basis(rows, 3)
    stacked = [list(r) for r in rows] + [list(r) for r in extra]
    assert abs(int(o.det_leibniz(stacked))) == 1
