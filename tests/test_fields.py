"""Finite field tables and subspace enumeration."""

import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as o
from steinberg.fields import (
    all_subspaces,
    finite_field,
    is_invertible,
    mat_vec,
    matrix_rank,
    rref,
    subspace_image,
)

ORDERS = (2, 3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize("q", ORDERS)
def test_field_axioms_exhaustive(q):
    f = finite_field(q)
    els = list(f.elements())
    assert len(els) == q
    add, sub, inv = f._add, f._sub, f._inv
    for a in els:
        assert add[a][0] == a
        assert f.mul(a, 1) == a
        assert add[a][sub[0][a]] == 0
        if a != 0:
            assert f.mul(a, inv[a]) == 1
    # associativity and distributivity on a sample; exhaustive for q <= 4
    triples = (
        [(a, b, c) for a in els for b in els for c in els]
        if q <= 4
        else [tuple(random.Random(q).choices(els, k=3)) for _ in range(200)]
    )
    for a, b, c in triples:
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, add[b][c]) == add[f.mul(a, b)][f.mul(a, c)]
        assert add[a][add[b][c]] == add[add[a][b]][c]


@pytest.mark.parametrize("q,p,deg", [(4, 2, 2), (8, 2, 3), (9, 3, 2)])
def test_additive_tables_are_digitwise_mod_p(q, p, deg):
    # elements are base-p digit strings; addition ignores the modulus
    # polynomial, so it is digit-wise addition mod p
    def digitwise(a, b, sign):
        out, place = 0, 1
        for _ in range(deg):
            out += ((a % p + sign * (b % p)) % p) * place
            a, b, place = a // p, b // p, place * p
        return out

    f = finite_field(q)
    for a in range(q):
        for b in range(q):
            assert f._add[a][b] == digitwise(a, b, 1)
            assert f._sub[a][b] == digitwise(a, b, -1)


def test_nonprime_fields_have_no_zero_divisors():
    for q in (4, 8, 9):
        f = finite_field(q)
        for a in f.elements():
            for b in f.elements():
                if a != 0 and b != 0:
                    assert f.mul(a, b) != 0


def test_field_rejects_unsupported_order():
    with pytest.raises(ValueError):
        finite_field(6)
    with pytest.raises(ValueError):
        finite_field(16)


@given(
    st.sampled_from(ORDERS),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rref_key_is_basis_independent(q, dim, data):
    f = finite_field(q)
    n = 4
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
            min_size=dim,
            max_size=dim,
        )
    )
    if matrix_rank(f, rows) != dim:
        return
    key = rref(f, rows)
    # shuffle and rescale rows: same row space, same key
    rng = random.Random(7)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    scaled = []
    for r in shuffled:
        c = rng.randrange(1, q)
        scaled.append([f.mul(c, a) for a in r])
    if dim >= 2:
        scaled[0] = [f._add[x][y] for x, y in zip(scaled[0], scaled[1])]
    assert rref(f, scaled) == key
    # each key row lies in the row space: stacking it keeps the rank
    for row in key:
        assert len(rref(f, list(key) + [list(row)])) == len(key)


@st.composite
def field_matrices(draw):
    """(q, rows, v): 1-5 rows of length 1-5 over F_q, some zero or repeated."""
    q = draw(st.sampled_from(ORDERS))
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, q - 1), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(st.one_of(row, st.just([0] * ncols)), min_size=1, max_size=5))
    if len(rows) < 5 and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return q, rows, draw(row)


@given(field_matrices())
@example((4, [[0, 3, 2]], [1, 1, 1]))
@example((9, [[0, 0]], [5, 7]))
@example((8, [[5, 1], [5, 1], [0, 0]], [0, 3]))
@settings(max_examples=300, deadline=None)
def test_row_kernels_match_the_per_entry_references(case):
    q, rows, v = case
    f = finite_field(q)
    assert rref(f, rows) == o.rref_reference(f, rows)
    assert mat_vec(f, rows, v) == o.mat_vec_reference(f, rows, v)


@pytest.mark.parametrize(
    "q,n,dim",
    [(2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 3, 2), (2, 4, 2), (4, 2, 1), (5, 3, 2)],
)
def test_subspace_counts_match_gaussian_binomials(q, n, dim):
    f = finite_field(q)
    spaces = all_subspaces(f, n, dim)
    assert len(spaces) == o.gaussian_binomial(n, dim, q)
    assert len(set(spaces)) == len(spaces)


@pytest.mark.parametrize("q", (2, 3, 4))
def test_subspace_image_respects_composition(q):
    f = finite_field(q)
    n = 3
    rng = random.Random(q)

    def random_invertible():
        while True:
            m = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            if is_invertible(f, m):
                return m

    g = random_invertible()
    h = random_invertible()
    gh = [
        [
            functools.reduce(
                lambda x, y: f._add[x][y], (f.mul(g[i][k], h[k][j]) for k in range(n)), 0
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    for key in all_subspaces(f, n, 1) + all_subspaces(f, n, 2):
        assert subspace_image(f, subspace_image(f, key, h), g) == subspace_image(
            f, key, gh
        )


def test_rref_rejects_ragged_input():
    f = finite_field(2)
    with pytest.raises(ValueError):
        rref(f, [[1, 0], [1]])
