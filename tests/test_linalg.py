"""Exact linear algebra: ranks, kernels, Smith forms, determinants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as o
from steinberg import linalg
from steinberg.complexes import chain_complex, tits_building
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
    integer_determinant,
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


# Mostly small entries, so rows meet and cancel; now and then a huge one,
# so the cross-multiplication and the gcd reduction carry real growth.
kernel_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**30), max_value=10**30),
)


@st.composite
def sparse_integer_rows(draw):
    nrows = draw(st.integers(min_value=0, max_value=9))
    ncols = draw(st.integers(min_value=0, max_value=9))
    rows = []
    for _ in range(nrows):
        cells = []
        if ncols:
            cells = draw(
                st.lists(
                    st.tuples(st.integers(min_value=0, max_value=ncols - 1), kernel_entries),
                    max_size=ncols,
                )
            )
        rows.append({j: v for j, v in cells if v})
    return nrows, ncols, rows


def assert_kernel_matches_reference(nrows, ncols, rows):
    got = linalg._impl.echelon(nrows, ncols, [dict(r) for r in rows])
    want = o.echelon_reference(nrows, ncols, [dict(r) for r in rows])
    assert got == want


@given(sparse_integer_rows())
@settings(max_examples=300, deadline=None)
def test_echelon_matches_reference_kernel(drawn):
    assert_kernel_matches_reference(*drawn)


@pytest.mark.parametrize(
    "nrows, ncols, rows",
    [
        (0, 0, []),
        (0, 4, []),
        (3, 0, [{}, {}, {}]),
        (3, 4, [{}, {}, {}]),
        (4, 3, [{}, {0: 2, 2: -1}, {}, {0: -4, 2: 2}]),
    ],
)
def test_echelon_of_empty_or_zero_rows(nrows, ncols, rows):
    assert_kernel_matches_reference(nrows, ncols, rows)


def test_echelon_matches_reference_after_its_dense_switch():
    # After column 0 the three remaining rows hold 12 nonzeros in a block
    # of width 4: 2 * 12 > 3 * 4, so the reference continues on dense rows.
    rows = [
        {0: 2, 1: 3, 2: 5, 3: 7, 4: 11},
        {0: 3, 1: -1, 2: 4, 3: 10**25, 4: 9},
        {0: 5, 1: 9, 2: -2, 3: 6, 4: 1},
        {0: 7, 1: 2, 2: 8, 3: -3, 4: 10**18 + 1},
    ]
    assert_kernel_matches_reference(4, 5, rows)


def test_echelon_matches_reference_on_building_boundary():
    d2 = chain_complex(tits_building(4, 3)).boundaries[2]
    rows = [{j: int(v) for j, v in r.items()} for r in d2.row_dicts()]
    assert_kernel_matches_reference(d2.rows, d2.cols, rows)


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


def square_matrices(entry, max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def check_square_saturation(rows):
    # a square matrix is a basis of Z^n exactly when |det| = 1, exactly when
    # it has full rank and every invariant factor is 1
    det = int(o.det_leibniz(rows))
    factors = o.invariant_factors_minors(rows)
    assert integer_determinant(rows) == det
    assert is_saturated(rows) == (abs(det) == 1)
    assert is_saturated(rows) == (len(factors) == len(rows) and set(factors) <= {1})


@given(square_matrices(st.integers(min_value=-(10**6), max_value=10**6)))
@settings(max_examples=100, deadline=None)
def test_square_saturation_matches_oracles(rows):
    check_square_saturation(rows)


@pytest.mark.parametrize(
    "rows,saturated",
    [
        ([[0]], False),
        ([[-1]], True),
        ([[2]], False),
        ([[1, 2, 3], [0, 1, 4], [1, 2, 3]], False),  # repeated row
        ([[1, 1], [1, -1]], False),  # det -2
        ([[2, 0, 0], [0, 1, 0], [5, 7, 1]], False),  # det 2
        ([[0, 1], [1, 0]], True),  # det -1, zero leading pivot
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], True),
    ],
)
def test_square_saturation_cases(rows, saturated):
    check_square_saturation(rows)
    assert is_saturated(rows) is saturated


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            o.unimodular_matrices(n, st.integers(0, 10**6)),
            o.unimodular_matrices(n, st.integers(0, 10**6)),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_unimodular_products_are_saturated(pair):
    a, b = pair
    n = len(a)
    prod = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    check_square_saturation(prod)
    assert is_saturated(prod)
    doubled = [[2 * v for v in prod[0]]] + prod[1:]
    check_square_saturation(doubled)
    assert not is_saturated(doubled)


@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=2))
@settings(max_examples=80, deadline=None)
def test_completion_always_unimodular_when_saturated(rows):
    if not is_saturated(rows):
        return
    extra = complete_to_basis(rows, 3)
    stacked = [list(r) for r in rows] + [list(r) for r in extra]
    assert abs(int(o.det_leibniz(stacked))) == 1
