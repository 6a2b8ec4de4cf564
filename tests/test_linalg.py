"""Exact linear algebra: ranks, kernels, Smith forms, determinants."""

from contextlib import suppress
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as o
from steinberg import linalg
from steinberg.complexes import chain_complex, tits_building
from steinberg.linalg import ExactMatrix, backend, kernel_basis, lattices, pivot_columns, rank
from steinberg.linalg.lattices import (
    complete_to_basis,
    integer_determinant,
    is_saturated,
    snf_transform,
)

ints = st.integers(min_value=-9, max_value=9)


def dense_matrices(entry, max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@st.composite
def integral_rref_combinations(draw, max_dim=6):
    """Integer combinations of the rows of an integral reduced row echelon
    matrix: when they have its rank, their kernel basis is integral."""
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    pivots = sorted(draw(st.sets(st.integers(min_value=0, max_value=cols - 1))))
    rref = []
    for p in pivots:
        row = [0] * cols
        row[p] = 1
        for j in range(p + 1, cols):
            if j not in pivots:
                row[j] = draw(ints)
        rref.append(row)
    coefficients = draw(
        st.lists(
            st.lists(ints, min_size=len(pivots), max_size=len(pivots)),
            min_size=1,
            max_size=max_dim,
        )
    )
    return [[sum(c * r[j] for c, r in zip(cs, rref)) for j in range(cols)] for cs in coefficients]


# Random integer matrices mostly have a reduced row echelon form that is not
# integral; the combinations mostly have one that is.
integer_matrices = st.one_of(dense_matrices(ints, max_dim=6), integral_rref_combinations())


@given(integer_matrices)
@settings(max_examples=120, deadline=None)
def test_rank_matches_oracle_and_transpose(dense):
    m = o.matrix_from_dense(dense)
    r = rank(m)
    assert r == o.rank_fraction(dense)
    assert r == rank(o.matrix_from_dense(zip(*dense)))


@given(integer_matrices)
@settings(max_examples=120, deadline=None)
def test_kernel_basis_is_exact_and_complete(dense):
    m = o.matrix_from_dense(dense)
    if non_integral_pivot(m) is not None:
        with pytest.raises(ValueError):
            kernel_basis(m)
        return
    basis = [densify(support, m.cols) for support in kernel_basis(m)]
    assert len(basis) == m.cols - rank(m)
    for vec in basis:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in dense)
    if basis:
        assert o.rank_fraction(basis) == len(basis)


def densify(support, cols):
    vec = [0] * cols
    for j, v in support:
        vec[j] = v
    return vec


def non_integral_pivot(m):
    """The last pivot column whose reduced row echelon row is not integral.

    None when the reduced row echelon form is integral.  A primitive row on
    the line of a reduced row is integral divided by its pivot entry only
    when that entry is 1.
    """
    pivot_cols, rows = o.primitive_rref_reference(m)
    bad = [p for p, row in zip(pivot_cols, rows) if row[p] != 1]
    return bad[-1] if bad else None


def assert_kernel_basis_matches_reference(m):
    # the basis is the reference's when that is integral; otherwise the
    # bottom-up back-elimination stops at the last pivot that is not +-1
    bad = non_integral_pivot(m)
    if bad is not None:
        with pytest.raises(ValueError, match=f"at pivot column {bad}$"):
            kernel_basis(m)
        return
    supports = kernel_basis(m)
    assert [densify(s, m.cols) for s in supports] == [
        list(v) for v in o.kernel_basis_reference(m)
    ]
    # each support ends with (its free column, 1) and holds no other
    # free column, so no other support holds that column
    free = o.free_columns_reference(m)
    assert [support[-1] for support in supports] == [(f, 1) for f in free]
    for support, f in zip(supports, free):
        cols = [j for j, _ in support]
        assert cols == sorted(set(cols))
        assert set(cols).intersection(free) == {f}
        assert all(v != 0 for _, v in support)
        assert all(type(v) is int for _, v in support)


@given(integer_matrices)
@example([[2, 1]])  # pivot entry 2: the basis vector would hold -1/2
@example([[2, 4]])  # not primitive: integral once divided by its gcd
@settings(max_examples=200, deadline=None)
def test_kernel_basis_matches_reference(dense):
    assert_kernel_basis_matches_reference(o.matrix_from_dense(dense))


@pytest.mark.parametrize(
    "dense, want",
    [
        ([[2, 4]], (((0, -2), (1, 1)),)),
        ([[0, 0]], (((0, 1),), ((1, 1),))),
        ([[1, -1, 0], [0, 3, 3]], (((0, -1), (1, -1), (2, 1)),)),
        ([[3, 1, 2], [1, 0, 1]], (((0, -1), (1, 1), (2, 1)),)),
        ([[2, 0, 4, 6], [0, 3, 3, 0]], (((0, -2), (1, -1), (2, 1)), ((0, -3), (3, 1)))),
    ],
)
def test_kernel_basis_explicit_supports(dense, want):
    m = o.matrix_from_dense(dense)
    assert kernel_basis(m) == want
    assert_kernel_basis_matches_reference(m)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_kernel_basis_of_empty_or_zero_matrix(rows, cols):
    m = ExactMatrix(rows, cols, ({},) * rows)
    assert kernel_basis(m) == tuple(((j, 1),) for j in range(cols))
    assert_kernel_basis_matches_reference(m)


def test_kernel_basis_refuses_a_pivot_other_than_one():
    # Rows are reduced and checked bottom up, so the last pivot column whose
    # reduced row is not integral is named: in [[2, 0, 1], [0, 1, 1]] the
    # lower row passes and the upper one, [1, 0, 1/2], does not.
    for dense, col in [
        ([[2, 1]], 0),
        ([[1, 1, 1], [0, 2, 1]], 1),
        ([[3, 0, 2], [0, 5, 7]], 1),
        ([[2, 0, 1], [0, 1, 1]], 0),
    ]:
        m = o.matrix_from_dense(dense)
        with pytest.raises(ValueError, match=f"at pivot column {col}$"):
            kernel_basis(m)
        assert non_integral_pivot(m) == col


def kernel_basis_or_error(m):
    try:
        return kernel_basis(m)
    except ValueError as e:
        return str(e)


@given(integer_matrices, st.data())
@settings(max_examples=150, deadline=None)
def test_appended_row_combinations_leave_the_kernel_basis(dense, data):
    # rows in the span of the others change neither the null space nor its
    # reduced row echelon basis, wherever they stand, nor which pivot of a
    # reduced form that is not integral is refused
    coefficients = data.draw(
        st.lists(st.lists(ints, min_size=len(dense), max_size=len(dense)), max_size=4)
    )
    extra = [
        [sum(c * row[j] for c, row in zip(cs, dense)) for j in range(len(dense[0]))]
        for cs in coefficients
    ]
    rows = data.draw(st.permutations(dense + extra))
    assert kernel_basis_or_error(o.matrix_from_dense(rows)) == kernel_basis_or_error(
        o.matrix_from_dense(dense)
    )


def test_kernel_basis_of_building_boundary_matches_reference():
    assert_kernel_basis_matches_reference(chain_complex(tits_building(3, 3)).boundaries[1])


@given(dense_matrices(ints, max_dim=4))
@example([[2, 0], [0, 3]])  # a diagonal that is not yet in Smith form
@settings(max_examples=100, deadline=None)
def test_smith_factors_divide_and_match_minor_gcds(dense):
    factors = snf_transform(dense).factors
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert factors == o.invariant_factors_minors(dense)


@given(dense_matrices(ints, max_dim=4).filter(lambda d: len(d) == len(d[0])))
@settings(max_examples=100, deadline=None)
def test_determinant_matches_leibniz(dense):
    assert integer_determinant(dense) == o.det_leibniz(dense)


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0), (1, 1), (3, 2)])
def test_smith_of_empty_or_zero_matrix_has_no_factors(rows, cols):
    assert snf_transform([[0] * cols for _ in range(rows)]).factors == ()


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
    assert_kernel_matches_reference(d2.rows, d2.cols, d2.row_dicts)


@given(sparse_integer_rows())
@settings(max_examples=200, deadline=None)
def test_back_elimination_leaves_primitive_reduced_rows(drawn):
    nrows, ncols, rows = drawn
    pivot_cols, pivot_rows = linalg._impl.echelon(nrows, ncols, [dict(r) for r in rows])
    m = ExactMatrix(nrows, ncols, tuple(rows))
    want_cols, want_rows = o.primitive_rref_reference(m)
    assert pivot_cols == want_cols
    bad = non_integral_pivot(m)
    if bad is not None:
        with pytest.raises(ValueError, match=f"at pivot column {bad}$"):
            linalg._back_eliminate(pivot_cols, pivot_rows)
        return
    linalg._back_eliminate(pivot_cols, pivot_rows)
    # each row is its reduced row echelon form row times a nonzero int,
    # divided down to gcd 1: the primitive row, up to sign
    for p, row, want in zip(pivot_cols, pivot_rows, want_rows):
        sign = 1 if row[p] > 0 else -1
        assert {j: sign * v for j, v in row.items()} == want


@given(integer_matrices)
@settings(max_examples=100, deadline=None)
def test_rank_and_kernel_basis_leave_the_matrix_unchanged(dense):
    # the kernel reduces its rows in place, so it must be handed copies,
    # also when kernel_basis refuses a reduced form that is not integral
    m = o.matrix_from_dense(dense)
    before = [dict(r) for r in m.row_dicts]
    held = list(m.row_dicts)
    rank(m)
    with suppress(ValueError):
        kernel_basis(m)
    assert list(m.row_dicts) == before
    assert all(a is b for a, b in zip(m.row_dicts, held))


@given(sparse_integer_rows())
@settings(max_examples=100, deadline=None)
def test_pivot_columns_are_the_kernel_pivots(drawn):
    nrows, ncols, rows = drawn
    want, _ = o.echelon_reference(nrows, ncols, [dict(r) for r in rows])
    assert pivot_columns(ncols, [dict(r) for r in rows]) == want


def test_pivot_columns_is_exported():
    assert "pivot_columns" in linalg.__all__


def test_matrix_validation():
    with pytest.raises(ValueError, match="row count"):
        ExactMatrix(2, 2, ({}, {}, {0: 1}))
    assert ExactMatrix(2, 2, ({0: 0}, {})).row_dicts == ({}, {})


def test_matrix_rows_are_normalised_once():
    with pytest.raises(ValueError, match="out of bounds"):
        ExactMatrix(2, 2, ({2: 1}, {}))
    with pytest.raises(ValueError, match="out of bounds"):
        ExactMatrix(1, 2, ({-1: 1},))
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, ({},))
    with pytest.raises(ValueError):
        ExactMatrix(-1, 2, ())
    m = ExactMatrix(2, 3, ({0: 2, 1: 0, 2: -3}, {0: 1, 2: 5}))
    assert m.row_dicts == ({0: 2, 2: -3}, {0: 1, 2: 5})
    # every value is an int: no Fraction, integral or not, and no bool,
    # float or string, is converted
    for bad in (Fraction(4, 2), Fraction(1, 3), Fraction(0), True, False, 2.0, "1"):
        with pytest.raises(ValueError, match=r"entry \(0,1\) is not an int"):
            ExactMatrix(1, 2, ({1: bad},))


@given(dense_matrices(ints, max_dim=4))
@settings(max_examples=80, deadline=None)
def test_snf_transform_certifies_itself(dense):
    tr = snf_transform(dense)
    n, c = len(dense), len(dense[0])
    # U M = S V^-1 with U and V^-1 unimodular, so U M V = S for the
    # unimodular V = (V^-1)^-1
    um = [[sum(tr.U[i][k] * dense[k][j] for k in range(n)) for j in range(c)] for i in range(n)]
    s_vinv = [
        [tr.diagonal[i] * tr.Vinv[i][j] if i < len(tr.diagonal) else 0 for j in range(c)]
        for i in range(n)
    ]
    assert um == s_vinv
    assert abs(int(o.det_leibniz(tr.U))) == 1
    assert abs(int(o.det_leibniz(tr.Vinv))) == 1


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
    with pytest.raises(ValueError, match="row length"):
        complete_to_basis([[1, 2, 3], [1, 2]], 3)


def test_completion_refuses_more_rows_than_columns_before_any_smith_form(monkeypatch):
    # more than n vectors are never independent in Z^n
    def no_smith(rows):
        raise AssertionError("snf_transform called")

    monkeypatch.setattr(lattices, "snf_transform", no_smith)
    assert complete_to_basis([[1, 0], [0, 1], [1, 1]], 2) is None


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
