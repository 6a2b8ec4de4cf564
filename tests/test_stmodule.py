"""Top homology of the building: basis, actions, coinvariants, characters."""

import copy
import random
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as o
from steinberg import fields as ff
from steinberg import complexes, stmodule
from steinberg.complexes import check_building_budget, chain_complex, tits_building
from steinberg.errors import DEFAULT_SIMPLEX_BUDGET, BudgetExceededError
from steinberg.linalg import ExactMatrix, kernel_basis, rank
from steinberg.quadratic import ZZ, make_order, order_invariants
from steinberg.stmodule import (
    CharacterTwist,
    DualizingType,
    LinearAction,
    apartment_class,
    apartment_span_rank,
    coinvariants_dim,
    dualizing_module_type,
    gl_generators,
    orientation_character_det,
    sl_generators,
    steinberg_module,
    trivial_generators,
)


def gl_order(n, q):
    total = 1
    for k in range(n):
        total *= q**n - q**k
    return total


@pytest.mark.parametrize(
    "n,q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]
)
def test_dimension_is_q_power(n, q):
    m = steinberg_module(n, q)
    assert m.dim == q ** (n * (n - 1) // 2)


FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9)

# Every building the default simplex budget admits.
DEFAULT_BUILDINGS = [
    *((2, q) for q in FIELD_SIZES),
    *((3, q) for q in FIELD_SIZES),
    (4, 2), (4, 3), (4, 4), (4, 5),
    (5, 2),
]


def test_default_buildings_are_those_within_the_default_budget():
    fits = []
    for n in range(2, 7):
        for q in FIELD_SIZES:
            try:
                check_building_budget(n, q, DEFAULT_SIMPLEX_BUDGET)
            except BudgetExceededError:
                continue
            fits.append((n, q))
    assert fits == DEFAULT_BUILDINGS


@pytest.mark.parametrize("n,q", DEFAULT_BUILDINGS)
def test_basis_is_certified_integral_on_every_default_building(n, q):
    # kernel_basis raises unless the basis is integral, so the module is
    # built only when it is; on each building the default budget admits,
    # every basis value is 1 or -1
    m = steinberg_module(n, q)
    assert m.dim == q ** (n * (n - 1) // 2)
    assert {v for support in m.supports for _, v in support} == {1, -1}


def add_chains(*chains):
    """Sum of sparse top chains {simplex: value}, zeros dropped."""
    out = {}
    for chain in chains:
        for s, v in chain.items():
            out[s] = out.get(s, 0) + v
    return {s: v for s, v in out.items() if v}


def test_apartment_class_rank_two():
    m = steinberg_module(2, 3)
    l1, l2, l3 = (1, 0), (0, 1), (1, 1)
    c12 = apartment_class(m, [l1, l2])
    c21 = apartment_class(m, [l2, l1])
    assert add_chains(c12, c21) == {}
    # two-term telescoping: [l1,l2] + [l2,l3] = [l1,l3]
    c23 = apartment_class(m, [l2, l3])
    c13 = apartment_class(m, [l1, l3])
    assert add_chains(c12, c23) == c13


def test_apartment_class_swap_negates_in_rank_three():
    m = steinberg_module(3, 2)
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    c = apartment_class(m, frame)
    swapped = apartment_class(m, [frame[1], frame[0], frame[2]])
    assert add_chains(c, swapped) == {}
    cycled = apartment_class(m, [frame[1], frame[2], frame[0]])
    assert cycled == c


@pytest.mark.parametrize("n,q", [(3, 2), (2, 5)])
def test_apartment_classes_are_signed_flags_in_the_basis(n, q):
    m = steinberg_module(n, q)
    field = ff.finite_field(q)
    frames = [
        [k[0] for k in combo]
        for combo in combinations(ff.all_subspaces(field, n, 1), n)
        if ff.matrix_rank(field, [list(k[0]) for k in combo]) == n
    ]
    assert frames
    for frame in frames:
        cls = apartment_class(m, frame)
        assert len(cls) == factorial(n)
        assert all(v in (1, -1) for v in cls.values())
        # the class is the combination of basis cycles its coordinates give
        terms = [
            {s: c * v for s, v in m.supports[j]} for j, c in o.coordinates(m, cls).items()
        ]
        assert add_chains(*terms) == cls


def independent_frames(n, q, count=None):
    """The first count frames of n independent lines, each line its RREF key
    row, in combinations order (all of them when count is None)."""
    field = ff.finite_field(q)
    return [
        [list(k[0]) for k in combo]
        for combo in combinations(ff.all_subspaces(field, n, 1), n)
        if ff.matrix_rank(field, [list(k[0]) for k in combo]) == n
    ][:count]


@pytest.mark.parametrize("n,q", [(3, 2), (4, 2), (3, 3)])
def test_apartment_class_lists_every_ordering_in_order(n, q):
    # one signed flag per permutation, inserted in permutation order
    m = steinberg_module(n, q)
    for frame in independent_frames(n, q, 5):
        want = o.apartment_class_reference(m, frame)
        assert list(apartment_class(m, frame).items()) == list(want.items())


@pytest.mark.parametrize("n,q,count", [(3, 3, None), (4, 3, 50)])
def test_apartment_class_matches_the_reference(n, q, count):
    # every frame at (3,3), the first 50 at (4,3), most not unitriangular:
    # each vertex read off the building's incidence is the RREF key of its
    # frame rows
    m = steinberg_module(n, q)
    frames = independent_frames(n, q, count)
    assert any(frame[j][j] != 1 or any(frame[j][j + 1 :]) for frame in frames for j in range(n))
    for frame in frames:
        assert apartment_class(m, frame) == o.apartment_class_reference(m, frame)


@pytest.mark.parametrize("n,q", [(3, 8), (2, 9), (3, 9)])
def test_apartment_class_matches_the_reference_on_random_frames(n, q):
    # random independent frames over prime-power fields, most of their
    # vectors not normalised (first nonzero entry other than 1)
    m = steinberg_module(n, q)
    field = ff.finite_field(q)
    rng = random.Random(100 * n + q)
    frames = []
    while len(frames) < 40:
        frame = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)]
        if ff.matrix_rank(field, frame) == n:
            frames.append(frame)
    lead = [next(x for x in line if x) for frame in frames for line in frame]
    assert sum(x != 1 for x in lead) > len(lead) // 2
    for frame in frames:
        want = o.apartment_class_reference(m, frame)
        assert list(apartment_class(m, frame).items()) == list(want.items())


def test_apartment_classes_run_no_rref_and_write_nothing(monkeypatch):
    # every class at (3,3) reads its vertices from the building alone: with
    # fields.rref raising, and the rank of a frame that is not unitriangular
    # taken from the oracle, each class still builds and equals the
    # reference, and neither the module nor its building changes
    m = steinberg_module(3, 3)
    frames = independent_frames(3, 3)
    want = [o.apartment_class_reference(m, frame) for frame in frames]

    def state():
        return copy.deepcopy({**vars(m), "building": vars(m.building)})

    before = state()

    def no_rref(field, rows):
        raise AssertionError("rref called")

    monkeypatch.setattr(ff, "rref", no_rref)
    monkeypatch.setattr(ff, "matrix_rank", lambda field, rows: len(o.rref_reference(field, rows)))
    assert [apartment_class(m, frame) for frame in frames] == want
    assert apartment_span_rank(m) == m.dim
    assert state() == before


def test_permutation_signs_are_computed_once_per_rank(monkeypatch):
    calls = []
    sign = stmodule._perm_sign
    monkeypatch.setattr(stmodule, "_perm_sign", lambda perm: calls.append(perm) or sign(perm))
    stmodule._orderings.cache_clear()
    m = steinberg_module(4, 2)
    assert apartment_span_rank(m) == m.dim == 64
    assert len(calls) == factorial(4)


def test_apartment_class_rejects_bad_frames():
    m = steinberg_module(2, 2)
    with pytest.raises(ValueError):
        apartment_class(m, [(1, 0)])
    with pytest.raises(ValueError):
        apartment_class(m, [(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        apartment_class(m, [(1, 0), (0, 1), (1, 1)])
    # entries outside range(4), bools and wrong lengths, before and after
    # apartment_span_rank; -1 must not be read as the negative index of the
    # element 3, nor 4 run past the tables
    m = steinberg_module(3, 4)
    bad_frames = [
        [(1, 0, 0), (1, 4, 0), (0, 0, 1)],
        [(1, 0, 0), (1, -1, 0), (0, 0, 1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1.0)],
        [(True, False, False), (0, 1, 0), (0, 0, 1)],
        [(1, 0, 0), (0, 1), (0, 0, 1)],
        [(1, 0, 0), (0, 1, 0, 0), (0, 0, 1)],
        [(1, 0, 0), (0, 0, 0), (0, 0, 1)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
    ]
    for warm in (False, True):
        if warm:
            assert apartment_span_rank(m) == 64
        for frame in bad_frames:
            with pytest.raises(ValueError):
                apartment_class(m, frame)


def unitriangular_frames(n, q):
    """The frames of apartment_span_rank: the columns of each upper unitriangular u."""
    for entries in product(range(q), repeat=n * (n - 1) // 2):
        above = iter(entries)
        yield [tuple([next(above) for _ in range(j)] + [1] + [0] * (n - 1 - j)) for j in range(n)]


@pytest.mark.parametrize("n,q", [(3, 3), (3, 4), (4, 2)])
def test_distinct_chambers_certify_the_cycle_on_every_unitriangular_frame(n, q):
    # apartment_class accepts a class when its n! flags are n! distinct
    # chambers; on every frame of the span pass the boundary pass agrees
    m = steinberg_module(n, q)
    frames = list(unitriangular_frames(n, q))
    assert len(frames) == m.dim
    for frame in frames:
        cls = apartment_class(m, frame)
        assert len(cls) == factorial(n)
        assert o.is_cycle(m, cls)


def test_corrupt_join_memo_is_refused():
    # line 2's mask is overwritten with line 1's, so the join of lines 0
    # and 2 is the span of lines 0 and 1: orderings (0, 1, 2) and (0, 2, 1)
    # land on one chamber, and (2, 0, 1) on a pair that is no flag
    m = steinberg_module(3, 3)
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    apartment_class(m, frame)
    above, point = m.building.above, m.building.point
    above[point[frame[2]]] = above[point[frame[1]]]
    with pytest.raises(AssertionError, match="apartment flag"):
        apartment_class(m, frame)


def test_an_empty_join_is_refused_as_a_missing_flag():
    # line 2 lies in no label, so each of its joins is the index -1
    m = steinberg_module(3, 3)
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    m.building.above[m.building.point[frame[2]]] = 0
    with pytest.raises(AssertionError, match="apartment flag missing"):
        apartment_class(m, frame)


def test_repeated_chambers_are_refused():
    # line 2's vector points at line 1's vertex: every flag is a chamber
    # of the building, but the class has fewer than n! entries
    m = steinberg_module(3, 3)
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    apartment_class(m, frame)
    point = m.building.point
    point[frame[2]] = point[frame[1]]
    with pytest.raises(AssertionError, match="not distinct chambers"):
        apartment_class(m, frame)


def test_independence_is_ranked_unless_the_frame_is_unitriangular(monkeypatch):
    m = steinberg_module(3, 4)
    ranked = []
    matrix_rank = ff.matrix_rank
    monkeypatch.setattr(
        ff, "matrix_rank", lambda field, rows: ranked.append(rows) or matrix_rank(field, rows)
    )
    frame = [(1, 0, 0), (2, 1, 0), (3, 1, 1)]
    cls = apartment_class(m, frame)
    assert not ranked
    # reversing three lines is an odd permutation; the reversed frame is
    # independent but not unitriangular, so it is ranked and accepted
    assert apartment_class(m, frame[::-1]) == {s: -v for s, v in cls.items()}
    assert ranked == [frame[::-1]]
    # a dependent frame is refused, also after the span pass
    assert apartment_span_rank(m) == m.dim
    dependent = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(ValueError, match="not independent"):
        apartment_class(m, dependent)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2)])
def test_apartment_classes_span(n, q):
    # the basis certificate agrees with eliminating the classes of every frame
    m = steinberg_module(n, q)
    assert apartment_span_rank(m) == o.apartment_span_rank_reference(m) == m.dim


def test_apartment_span_rank_rejects_a_repeated_class(monkeypatch):
    m = steinberg_module(2, 3)
    standard = apartment_class(m, [(1, 0), (0, 1)])
    monkeypatch.setattr(stmodule, "apartment_class", lambda module, frame: standard)
    with pytest.raises(AssertionError):
        apartment_span_rank(m)


def test_apartment_span_rank_rejects_a_class_meeting_another_designated_chamber(monkeypatch):
    # each class also holds the designated chamber of the frame before it;
    # its own designated chamber stays its last key
    m = steinberg_module(3, 2)
    designated = []

    def leaky_class(module, frame):
        *rest, own = apartment_class(module, frame)
        leaked = dict.fromkeys(rest + designated[-1:], 1)
        leaked[own] = 1
        designated.append(own)
        return leaked

    monkeypatch.setattr(stmodule, "apartment_class", leaky_class)
    with pytest.raises(AssertionError, match="designated chamber"):
        apartment_span_rank(m)


@pytest.mark.parametrize(
    "n,q,gens_of",
    [(2, 2, gl_generators), (2, 3, gl_generators), (3, 2, gl_generators),
     (2, 3, sl_generators)],
)
def test_full_group_coinvariants_vanish(n, q, gens_of):
    m = steinberg_module(n, q)
    act = m.action(gens_of(n, q))
    assert coinvariants_dim(act) == 0


def test_trivial_action_coinvariants_keep_everything():
    m = steinberg_module(2, 2)
    act = m.action(trivial_generators(2))
    assert coinvariants_dim(act) == m.dim


def test_sign_twisted_coinvariants_of_symmetric_group():
    # GL_2(F_2) is the symmetric group on the three lines; the module is
    # its two-dimensional irreducible, so any nontrivial twist still kills
    # the coinvariants
    m = steinberg_module(2, 2)
    act = m.action(gl_generators(2, 2))
    assert coinvariants_dim(act, CharacterTwist((-1, -1))) == 0


def test_coinvariants_input_validation():
    m = steinberg_module(2, 2)
    act = m.action(gl_generators(2, 2))
    with pytest.raises(ValueError):
        coinvariants_dim(act, CharacterTwist((-1,)))
    with pytest.raises(ValueError):
        CharacterTwist((2, 1))
    wide = o.matrix_from_dense([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="shape mismatch"):
        coinvariants_dim(LinearAction(2, (wide,)))


def test_coinvariants_do_not_depend_on_generating_set():
    # two generating sets of the same group: closures agree, so must the
    # coinvariant dimensions
    q, n = 3, 2
    std = gl_generators(n, q)
    alt = [[[1, 0], [1, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 1]]]
    closure_std = o.mulclose([tuple(map(tuple, g)) for g in std], q)
    closure_alt = o.mulclose([tuple(map(tuple, g)) for g in alt], q)
    assert closure_std == closure_alt
    assert len(closure_std) == gl_order(n, q)
    m = steinberg_module(n, q)
    assert coinvariants_dim(m.action(std)) == coinvariants_dim(m.action(alt))


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3)])
def test_coinvariants_match_elimination_on_generator_subsets(n, q):
    # every nonempty subset of the GL generators, with every +-1 twist:
    # subsets without the n-cycle leave live roots, so some quotients are
    # nonzero and the projected rows are ranked
    m = steinberg_module(n, q)
    mats = m.action(gl_generators(n, q)).matrices
    nonzero = 0
    for size in range(1, len(mats) + 1):
        for subset in combinations(mats, size):
            act = LinearAction(m.dim, subset)
            for signs in product((1, -1), repeat=size):
                twist = CharacterTwist(signs)
                want = o.coinvariants_dim_reference(act, twist)
                assert coinvariants_dim(act, twist) == want
                nonzero += want != 0
    assert nonzero > 0


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3)])
def test_coinvariants_match_elimination_on_sl_generator_subsets(n, q):
    # transvections are not signed permutations in the module basis, yet
    # many of their columns hold one +-1 entry: every subset of at most two,
    # with every twist, and the whole set plain and with all -1
    m = steinberg_module(n, q)
    mats = m.action(sl_generators(n, q)).matrices
    cases = [
        (subset, CharacterTwist(signs))
        for size in (1, 2)
        for subset in combinations(mats, size)
        for signs in product((1, -1), repeat=size)
    ]
    cases += [(mats, None), (mats, CharacterTwist((-1,) * len(mats)))]
    nonzero = 0
    for subset, twist in cases:
        act = LinearAction(m.dim, subset)
        want = o.coinvariants_dim_reference(act, twist)
        assert coinvariants_dim(act, twist) == want
        nonzero += want != 0
    assert nonzero > 0


@st.composite
def mixed_actions(draw):
    """A small LinearAction mixing signed permutations, identities, integer
    matrices and matrices built column by column, with no twist or a random
    one."""
    dim = draw(st.integers(0, 6))
    signs = st.sampled_from((1, -1))
    mats = []
    kinds = st.sampled_from(("signed", "identity", "integer", "columns"))
    for kind in draw(st.lists(kinds, max_size=4)):
        if kind == "signed":
            perm = draw(st.permutations(range(dim)))
            vals = draw(st.lists(signs, min_size=dim, max_size=dim))
            dense = [[vals[j] if perm[j] == i else 0 for j in range(dim)] for i in range(dim)]
        elif kind == "identity":
            dense = [[int(i == j) for j in range(dim)] for i in range(dim)]
        elif kind == "columns":
            # each column a single +-1, a single 2, -2 or 3, dense, or empty:
            # dense integer matrices almost never hold a single +-1 column
            dense = [[0] * dim for _ in range(dim)]
            for j in range(dim):
                col = draw(st.sampled_from(("unit", "other", "dense", "empty")))
                if col == "dense":
                    for i in range(dim):
                        dense[i][j] = draw(st.integers(-2, 2))
                elif col != "empty":
                    value = signs if col == "unit" else st.sampled_from((2, -2, 3))
                    dense[draw(st.integers(0, dim - 1))][j] = draw(value)
        else:
            row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
            dense = draw(st.lists(row, min_size=dim, max_size=dim))
        mats.append(o.matrix_from_dense(dense))
    k = len(mats)
    twist = draw(st.none() | st.lists(signs, min_size=k, max_size=k).map(
        lambda s: CharacterTwist(tuple(s))))
    return LinearAction(dim, tuple(mats)), twist


@given(mixed_actions())
@example((LinearAction(0, ()), None))
@example((LinearAction(3, ()), None))
@example((LinearAction(3, ()), CharacterTwist(())))
# a 1-cycle with sign -1 kills e_0; a 3-cycle whose signs multiply to -1
# kills everything
@example((LinearAction(2, (o.matrix_from_dense([[-1, 0], [0, 1]]),)), None))
@example((LinearAction(3, (o.matrix_from_dense([[0, 0, -1], [1, 0, 0], [0, 1, 0]]),)), None))
# not signed permutations: a swap whose only other column is a single 2;
# a column whose one entry times eps is -1 at its own row, killing e_0,
# beside a dense column whose relation e_0 + e_1 then leaves e_2 alive,
# plain and twisted
@example((LinearAction(3, (o.matrix_from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 2]]),)), None))
@example((LinearAction(3, (o.matrix_from_dense([[-1, 0, 1], [0, 1, 1], [0, 0, 1]]),)), None))
@example((LinearAction(3, (o.matrix_from_dense([[1, 0, 1], [0, -1, 1], [0, 0, -1]]),)),
          CharacterTwist((-1,))))
@settings(max_examples=300, deadline=None)
def test_coinvariants_match_elimination_on_mixed_actions(drawn):
    act, twist = drawn
    want = o.coinvariants_dim_reference(act, twist)
    assert coinvariants_dim(act, twist) == want
    if not act.matrices:
        assert want == act.dim


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 5), (3, 2)])
def test_generator_sets_generate(n, q):
    gl = o.mulclose([tuple(map(tuple, g)) for g in gl_generators(n, q)], q)
    assert len(gl) == gl_order(n, q)
    sl = o.mulclose([tuple(map(tuple, g)) for g in sl_generators(n, q)], q)
    assert len(sl) == gl_order(n, q) // (q - 1)


def test_action_matrices_are_invertible_homomorphism_images():
    m = steinberg_module(2, 2)
    act = m.action(gl_generators(2, 2))
    e12 = act.matrices[0]
    d = o.dense_of(e12)
    dim = m.dim
    square = [[sum(d[i][k] * d[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
    # the transvection squares to the identity over F_2
    assert square == [[1 if i == j else 0 for j in range(m.dim)] for i in range(m.dim)]


@pytest.mark.parametrize("n,q", [(3, 3), (2, 9)])
def test_boundaries_and_basis_hold_plain_ints(n, q):
    for mat in chain_complex(tits_building(n, q)):
        assert all(type(v) is int for row in mat.row_dicts for v in row.values())
    module = steinberg_module(n, q)
    assert all(type(v) is int for support in module.supports for _, v in support)
    for mat in module.action(gl_generators(n, q)).matrices:
        assert all(type(v) is int for row in mat.row_dicts for v in row.values())


@pytest.mark.parametrize("gens_of", [gl_generators, sl_generators])
@pytest.mark.parametrize("n,q", [(3, 3), (3, 4), (4, 2)])
def test_action_matrices_are_clean_as_built(n, q, gens_of):
    # action skips the validating constructor: a re-normalised copy of each
    # matrix is equal to it, and every value is already a nonzero int
    m = steinberg_module(n, q)
    for mat in m.action(gens_of(n, q)).matrices:
        assert ExactMatrix(mat.rows, mat.cols, mat.row_dicts) == mat
        for row in mat.row_dicts:
            for v in row.values():
                assert type(v) is int and v != 0


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3), (2, 9), (4, 2)])
def test_supports_match_reference_kernel(n, q):
    m = steinberg_module(n, q)
    boundary = chain_complex(m.building)[m.top]
    dense = []
    for support in m.supports:
        vec = [0] * boundary.cols
        for c, v in support:
            vec[c] = v
        dense.append(tuple(vec))
    assert dense == list(o.kernel_basis_reference(boundary))


@pytest.mark.parametrize("n,q", [(4, 3), (5, 2)])
def test_supports_are_the_kernel_basis_of_the_whole_top_boundary(n, q):
    # the module's basis comes from the top boundary without its cleared
    # rows; at these sizes clearing drops rows beyond vertex 0's, and the
    # dense reference kernel is too slow
    m = steinberg_module(n, q)
    assert m.supports == kernel_basis(chain_complex(m.building)[m.top])


@pytest.mark.parametrize("n,q", [(2, 3), (4, 3), (5, 2)])
def test_cleared_top_boundary_shares_the_boundary_rows(n, q, monkeypatch):
    # the module's kernel basis reads the top boundary's own row objects,
    # in order and unchecked; only the ones clearing drops are missing, and
    # in degree 0 the augmentation is kept whole
    built, handed = [], []

    def keep(X):
        built.append(chain_complex(X))
        return built[-1]

    def spy(matrix):
        handed.append(matrix)
        return kernel_basis(matrix)

    monkeypatch.setattr(complexes, "chain_complex", keep)
    monkeypatch.setattr(stmodule, "kernel_basis", spy)
    steinberg_module(n, q)
    [boundaries], [kept] = built, handed
    top = boundaries[n - 2]
    position = {id(r): f for f, r in enumerate(top.row_dicts)}
    rows = [position[id(r)] for r in kept.row_dicts]
    assert all(r is top.row_dicts[f] for r, f in zip(kept.row_dicts, rows))
    assert rows == sorted(set(rows)) and kept.cols == top.cols
    assert (len(rows) < top.rows) == (n > 2)
    assert rank(kept) == rank(top)


GENERATOR_SETS = {
    "gl": gl_generators,
    "sl": sl_generators,
    "trivial": lambda n, q: trivial_generators(n),
}


@pytest.mark.parametrize("group", sorted(GENERATOR_SETS))
@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (3, 2), (3, 3), (2, 9)])
def test_action_matches_dense_oracle(n, q, group):
    m = steinberg_module(n, q)
    gens = GENERATOR_SETS[group](n, q)
    act = m.action(gens)
    want = o.dense_action_matrices(m, gens)
    assert [o.dense_of(mat) for mat in act.matrices] == want
    # coinvariants against the dense rank of the eps(g) g - 1 relations
    for eps in (1, -1):
        rows = [
            [eps * mat[i][j] - (i == j) for i in range(m.dim)]
            for mat in want
            for j in range(m.dim)
        ]
        twist = CharacterTwist((eps,) * len(gens)) if eps == -1 else None
        assert coinvariants_dim(act, twist) == m.dim - o.rank_fraction(rows)


def test_coordinates_reject_a_non_cycle():
    m = steinberg_module(3, 2)
    assert not o.is_cycle(m, {0: 1})
    with pytest.raises(ValueError, match="not in the cycle space"):
        o.coordinates(m, {0: 1})
    # a basis cycle itself is a cycle, and reads back as its own
    # coordinate vector
    assert o.is_cycle(m, dict(m.supports[3]))
    assert o.coordinates(m, dict(m.supports[3])) == {3: 1}


def test_coordinates_reject_columns_outside_the_top_simplices():
    m = steinberg_module(3, 2)
    ncols = m.building.n_cells(m.top)
    cycle = dict(m.supports[3])
    free, one = m.supports[3][-1]
    assert one == 1
    # the free column written as a negative index names the same simplex
    # in Python's indexing, so the chain passes the face-list cycle check
    # (which the package ran only on the columns of classes it built) and
    # would read {}
    wrapped = {(free - ncols if s == free else s): v for s, v in cycle.items()}
    assert o.is_cycle(m, wrapped)
    with pytest.raises(ValueError, match=f"range\\({ncols}\\)"):
        o.coordinates(m, wrapped)
    with pytest.raises(ValueError, match=f"range\\({ncols}\\)"):
        o.coordinates(m, {ncols: 1})


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_cycle_check_agrees_with_the_top_boundary(n, q):
    # o.is_cycle reads the building's face lists (the augmentation for
    # n = 2); a chain passes exactly when the boundary matrix kills it, and
    # so does the oracle's own check
    m = steinberg_module(n, q)
    boundary = chain_complex(m.building)[m.top]
    ncols = m.building.n_cells(m.top)
    rng = random.Random(10 * n + q)
    chains = []
    for _ in range(40):
        chain = {}
        for j in rng.sample(range(m.dim), min(3, m.dim)):
            c = rng.choice((-2, -1, 1, 3))
            for s, v in m.supports[j]:
                chain[s] = chain.get(s, 0) + c * v
        chains.append(chain)
        broken = dict(chain)
        s = rng.randrange(ncols)
        broken[s] = broken.get(s, 0) + 1
        chains.append(broken)
    for chain in chains:
        image = [sum(v * chain.get(j, 0) for j, v in row.items()) for row in boundary.row_dicts]
        try:
            o.coordinates(m, chain)
            accepted = True
        except ValueError:
            accepted = False
        assert o.is_cycle(m, chain) == accepted == (not any(image))


@pytest.mark.parametrize("sign", [True, False, 1.0, -1.0, 2, 0, "1"])
def test_character_twist_takes_only_the_ints_one_and_minus_one(sign):
    # True and 1.0 compare equal to 1, so a membership test alone lets them in
    with pytest.raises(ValueError, match="integers 1 and -1"):
        CharacterTwist((sign, -1))
    assert CharacterTwist((1, -1)).signs == (1, -1)


@pytest.mark.parametrize("n", range(1, 9))
def test_orientation_character_alternates(n):
    assert orientation_character_det(n) == (-1) ** (n - 1)


def test_duality_data_need_a_positive_rank():
    with pytest.raises(ValueError, match="n must be positive"):
        orientation_character_det(0)
    with pytest.raises(ValueError, match="n must be positive"):
        dualizing_module_type(0, order_invariants(make_order(2)))


@pytest.mark.parametrize(
    "n,order_key,expected",
    [
        (2, 2, DualizingType.STEINBERG_TWISTED),
        (2, 5, DualizingType.STEINBERG_TWISTED),
        (2, 10, DualizingType.STEINBERG_TWISTED),
        (2, "Z", DualizingType.STEINBERG_TWISTED),
        (4, 5, DualizingType.STEINBERG_TWISTED),
        (2, 3, DualizingType.STEINBERG),
        (2, 34, DualizingType.STEINBERG),
        (2, -1, DualizingType.STEINBERG),
        (3, 2, DualizingType.STEINBERG),
        (3, "Z", DualizingType.STEINBERG),
        (5, 10, DualizingType.STEINBERG),
    ],
)
def test_dualizing_dichotomy(n, order_key, expected):
    inv = order_invariants(ZZ if order_key == "Z" else make_order(order_key))
    assert dualizing_module_type(n, inv) is expected
