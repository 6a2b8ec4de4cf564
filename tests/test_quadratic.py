"""Quadratic orders: units, class numbers, embeddings."""

import itertools
import math
import random
import time

import pytest

import oracles as o
from steinberg import quadratic
from steinberg.errors import BudgetExceededError
from steinberg.quadratic import (
    ZZ,
    RingElement,
    class_group,
    fundamental_unit,
    is_squarefree,
    log_embedding,
    make_order,
    order_invariants,
)

SQUAREFREE_REAL = [d for d in range(2, 62) if is_squarefree(d)]
SQUAREFREE_IMAG = [-d for d in range(1, 62) if is_squarefree(d)]


def test_make_order_rejects_bad_d():
    for d in (0, 1, 4, 12, -4, 18):
        with pytest.raises(ValueError):
            make_order(d)


def test_is_squarefree_matches_reference_on_small_d():
    for d in range(-20_000, 20_001):
        assert is_squarefree(d) == o.is_squarefree_reference(d), d


# Primes near 10^6, whose products are past what trial division to the
# square root can reach quickly.
BIG_PRIMES = [999_953, 999_959, 999_961, 999_979, 999_983, 1_000_003, 1_000_033]


def test_is_squarefree_on_products_of_primes_near_a_million():
    for p in BIG_PRIMES:
        assert all(p % f for f in range(2, math.isqrt(p) + 1)), p
    for p, r in itertools.combinations(BIG_PRIMES, 2):
        for c in (1, -1, 2, -2, 3, -6):
            assert not is_squarefree(c * p * p)
            assert is_squarefree(c * p * r)
            assert not is_squarefree(c * 9 * p * r)
    # The square factor is found only when trial division reaches it, near
    # the cube root of d.
    for p, r in [(999_953, 1_000_033), (1_000_033, 999_953), (999_979, 999_983)]:
        assert not is_squarefree(p * p * r)
        assert not is_squarefree(-2 * p * p * r)
    p, r = BIG_PRIMES[:2]
    assert o.is_squarefree_reference(p * r) and not o.is_squarefree_reference(p * p)


@pytest.mark.parametrize("d", SQUAREFREE_REAL)
def test_fundamental_unit_matches_search(d):
    u = fundamental_unit(make_order(d))
    assert abs(u.norm()) == 1
    found = o.pell_min_unit_search(d, cap=400_000)
    if found is None:
        pytest.skip(f"search cap too small for d={d}")
    assert found == {"a": u.a, "b": u.b, "denom": u.denom, "norm": u.norm()}


def test_negative_pell_verdicts():
    for d, expected in [(2, True), (5, True), (10, True), (3, False), (34, False)]:
        assert order_invariants(make_order(d)).norm_minus_one is expected
    assert order_invariants(ZZ).norm_minus_one is True
    assert order_invariants(make_order(-1)).norm_minus_one is False
    assert order_invariants(make_order(-5)).norm_minus_one is False


def test_fundamental_unit_imaginary_raises():
    with pytest.raises(ValueError):
        fundamental_unit(make_order(-7))


def test_fundamental_unit_past_the_step_cap_raises_budget_error(monkeypatch):
    # the period of sqrt(94) takes more than two steps; the budget error
    # is a RuntimeError, as documented
    monkeypatch.setattr(quadratic, "CF_STEP_CAP", 2)
    with pytest.raises(BudgetExceededError, match="step cap 2$"):
        fundamental_unit(make_order(94))
    assert issubclass(BudgetExceededError, RuntimeError)


def test_fundamental_unit_at_a_huge_d_meets_the_step_cap_at_once():
    # the period of sqrt(10^18 + 3) outruns the cap; only the small surd
    # state is stepped, so the budget error comes within seconds
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"step cap {quadratic.CF_STEP_CAP}$"):
        fundamental_unit(make_order(10**18 + 3))
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("d", SQUAREFREE_REAL + SQUAREFREE_IMAG)
def test_class_numbers_match_ideal_oracle(d):
    inv = order_invariants(make_order(d))
    assert inv.h == o.class_number_by_ideals(d)
    assert class_group(make_order(d)) == inv.h_narrow
    if d > 0:
        expected_narrow = inv.h if inv.norm_minus_one else 2 * inv.h
        assert inv.h_narrow == expected_narrow
    else:
        assert inv.h_narrow == inv.h


FORM_SPOT_D = [99989, 99991, 99998, 100001, -100007, -100006, -100005, -99998]


def test_reduced_forms_match_the_reference_enumeration():
    # The counted definite forms (b >= 0), with (a, -b, c) added where
    # they count twice, and the walked indefinite forms (a > 0), with their
    # negations, are exactly the reference lists.
    sweep = [d for d in range(-2000, 2001) if is_squarefree(d)]
    for d in sweep + FORM_SPOT_D:
        D = make_order(d).discriminant
        if D < 0:
            found = list(quadratic._definite_forms(D))
            assert all(b >= 0 for _, b, _ in found), d
            full = found + [(a, -b, c) for a, b, c in found if 0 < b < a < c]
            expected = o.reduced_definite_forms_reference(D)
            assert sorted(full) == expected, d
            assert class_group(make_order(d)) == len(expected), d
        else:
            found = list(quadratic._indefinite_forms(D))
            assert all(a > 0 for a, _, _ in found), d
            full = found + [(-a, b, -c) for a, b, c in found]
            assert sorted(full) == o.reduced_indefinite_forms_reference(D), d


def test_class_numbers_match_the_reference_walk():
    for d in range(-2000, 2001):
        if is_squarefree(d):
            order = make_order(d)
            assert class_group(order) == o.class_group_reference(order).h_narrow, d


def test_class_group_refuses_a_walk_that_leaves_the_reduced_forms(monkeypatch):
    # 79 has narrow class number 6 (h = 3): its forms make several rho^2
    # orbits.  Dropping one form, or adding a form outside the reduced
    # window, breaks the walk through it.
    order = make_order(79)
    forms = list(quadratic._indefinite_forms(order.discriminant))
    assert class_group(order) == 6 and len(forms) > 6
    for broken in (forms[1:], forms + [(1, 2, -(order.discriminant - 4) // 4)]):
        monkeypatch.setattr(quadratic, "_indefinite_forms", lambda D, broken=broken: iter(broken))
        with pytest.raises(AssertionError, match="left the reduced set"):
            class_group(order)


def _period_quotients(d):
    # the partial quotients of one period of sqrt(d), d = 2, 3 mod 4
    s = math.isqrt(d)
    P, Q, out = 0, 1, []
    while not out or Q != 1:
        a = (P + s) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
        out.append(a)
    return out


def test_period_convergent_matches_the_linear_fold():
    # 20000971 = 3 mod 4 has a period of 8,906 quotients, so the product
    # tree has 279 leaves; short lists cover one leaf, a full leaf and a
    # leaf plus one.
    quotients = _period_quotients(20000971)
    assert len(quotients) == 8906
    assert quadratic._convergent(quotients) == o.period_convergent_reference(quotients)
    rng = random.Random(5)
    for k in list(range(1, 70)) + [95, 96, 97, 1000]:
        qs = [rng.randint(1, 10**rng.randint(1, 6)) for _ in range(k)]
        assert quadratic._convergent(qs) == o.period_convergent_reference(qs), k


def test_fundamental_unit_of_the_cattle_problem():
    # Archimedes' cattle problem reduces to the Pell equation
    # x^2 - 4729494 y^2 = 1 (Lenstra, Notices AMS 49, 2002).
    u = fundamental_unit(make_order(4729494))
    assert (u.a, u.b, u.denom) == (
        109931986732829734979866232821433543901088049,
        50549485234315033074477819735540408986340,
        1,
    )
    assert u.norm() == 1


def test_half_integer_coordinates_only_when_allowed():
    # (1 + sqrt(5)) / 2 is the golden-ratio unit of norm -1
    assert RingElement(5, 1, 1).norm() == -1
    with pytest.raises(ValueError):
        RingElement(5, 1, 0)
    assert RingElement(2, 1, 0).denom == 1


def test_log_embedding_unit_coordinates_sum_to_zero():
    order = make_order(10)
    u = fundamental_unit(order)
    coords = log_embedding(order, u)
    assert len(coords) == 2
    assert coords[0] == pytest.approx(math.log(3 + math.sqrt(10)), rel=1e-12)
    assert abs(coords[0] + coords[1]) < 1e-12
    with pytest.raises(ValueError):
        log_embedding(order, RingElement(10, 2, 0))
    # a unit of another order, or no ring element at all
    with pytest.raises(ValueError, match="does not belong"):
        log_embedding(make_order(2), u)
    with pytest.raises(ValueError, match="does not belong"):
        log_embedding(order, (u.a, u.b))


def test_log_embedding_sums_to_zero_exhaustively():
    # every squarefree 2 <= d < 10^4: finite coordinates summing to exactly
    # 0 for the fundamental unit, its negative and its conjugate, each
    # float equal to the mpmath reference
    for d in range(2, 10**4):
        if not is_squarefree(d):
            continue
        order = make_order(d)
        u = fundamental_unit(order)
        for v in (u, RingElement(d, -u.a, -u.b), RingElement(d, u.a, -u.b)):
            coords = log_embedding(order, v)
            assert all(math.isfinite(x) for x in coords), (d, coords)
            assert coords[0] + coords[1] == 0, (d, coords)
            assert coords == o.log_embedding_reference(order, v), (d, v)


@pytest.mark.parametrize("k", [3, 50, 5000])
def test_log_embedding_of_powers_of_one_plus_root_two(k):
    # (1 + sqrt 2)^5000 has 1,914 digits in each coordinate
    order = make_order(2)
    u = RingElement(2, *o.pair_power(2, 1, 1, k))
    coords = log_embedding(order, u)
    assert coords == o.log_embedding_reference(order, u)
    assert coords[0] == pytest.approx(k * math.log(1 + math.sqrt(2)), rel=1e-14)


def test_log_embedding_of_a_hundred_thousand_digit_unit():
    # (1 + sqrt 2)^270000 has about 10^5 digits in each coordinate: its
    # leading bits and the shift's logarithm give k L(u)
    order = make_order(2)
    u = RingElement(2, 1, 1)
    big = log_embedding(order, RingElement(2, *o.pair_power(2, 1, 1, 270000)))
    assert big[0] == pytest.approx(270000 * log_embedding(order, u)[0], rel=1e-12)
    assert big[1] == -big[0]


@pytest.mark.parametrize("d", [-1, -3])
def test_log_embedding_of_imaginary_units_is_zero(d):
    # every unit of an imaginary order has |u|^2 = N(u) = 1
    order = make_order(d)
    if d == -1:
        coords = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    else:
        coords = [(2, 0), (-2, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    for u in (RingElement(d, a, b) for a, b in coords):
        assert u.norm() == 1
        assert log_embedding(order, u) == (0.0,)
        assert o.log_embedding_reference(order, u) == (0.0,)


@pytest.mark.parametrize("d", [631, 751, 1000003])
def test_log_embedding_of_large_units(d):
    # regressions: the conjugate coordinate once lost all its digits to
    # cancellation (d = 751 gave (57.942, -57.819), d = 1000003 gave -inf).
    # u = (a + b sqrt d)/denom with a, b > 0 and a^2 - d b^2 = +-denom^2, so
    # log u = log(2a/denom) up to a relative error of about (denom/a)^2.
    order = make_order(d)
    u = fundamental_unit(order)
    assert u.a > 0 and u.b > 0 and u.a > 10**20
    big = math.log(2 * u.a) - math.log(u.denom)
    coords = log_embedding(order, u)
    assert coords[0] == pytest.approx(big, rel=1e-12)
    assert coords[1] == -coords[0]
    # the conjugate unit swaps the two real places
    assert log_embedding(order, RingElement(d, u.a, -u.b)) == (coords[1], coords[0])


def test_order_descriptor_shapes():
    desc = order_invariants(make_order(34)).descriptor()
    assert desc["norm_minus_one"] is False
    assert desc["h"] == 2
    assert desc["h_narrow"] == 4
    assert desc["fundamental_unit"] == {"a": 35, "b": 6, "denom": 1, "norm": 1}
    assert desc["signature"] == [2, 0]
    zdesc = order_invariants(ZZ).descriptor()
    assert zdesc["d"] is None and zdesc["h"] == 1 and zdesc["norm_minus_one"] is True
    imag = order_invariants(make_order(-23)).descriptor()
    assert imag["h"] == 3 and imag["fundamental_unit"] is None
