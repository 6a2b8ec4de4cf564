"""Dimension formulas and the vanishing / lower-bound dichotomy."""

from types import SimpleNamespace

import pytest

from steinberg.errors import BudgetExceededError
from steinberg.formulas import (
    IMAGINARY_FIELD,
    LOWER_BOUND_DIGITS,
    NORM_MINUS_ONE_MISSING,
    PARITY_ODD,
    SIGNATURE_TOO_SMALL,
    bordification_dim,
    nonvanishing_lower_bound,
    vanishing_applies,
    vcd_gl,
    vcd_sl,
)
from steinberg.quadratic import ZZ, make_order, order_invariants


def test_vcd_values():
    assert vcd_gl(2, 1, 0) == 1
    assert vcd_gl(2, 2, 0) == 4
    assert vcd_gl(2, 0, 1) == 2
    assert vcd_gl(3, 1, 0) == 3
    assert vcd_sl(2, 1, 0) == 1
    assert vcd_sl(3, 1, 0) == 3
    assert vcd_sl(2, 0, 1) == 2
    assert vcd_sl(2, 2, 0) == 3


def test_bordification_values():
    assert bordification_dim(2, 1, 0) == 2
    assert bordification_dim(2, 0, 1) == 3
    assert bordification_dim(3, 2, 0) == 11


@pytest.mark.parametrize("r,s", [(1, 0), (2, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("n", range(2, 13))
def test_codimension_identity(n, r, s):
    # the boundary of the bordification sits n-2 above the duality degree
    assert bordification_dim(n, r, s) - vcd_gl(n, r, s) - 1 == n - 2


def test_signature_validation():
    with pytest.raises(ValueError):
        vcd_gl(0, 1, 0)
    with pytest.raises(ValueError):
        vcd_gl(2, 0, 0)
    with pytest.raises(ValueError):
        bordification_dim(2, -1, 1)


def test_vanishing_reasons():
    ok, reasons = vanishing_applies(2, order_invariants(make_order(34)))
    assert not ok and reasons == (NORM_MINUS_ONE_MISSING,)
    ok, reasons = vanishing_applies(3, order_invariants(make_order(2)))
    assert not ok and PARITY_ODD in reasons
    ok, reasons = vanishing_applies(2, order_invariants(make_order(-5)))
    assert not ok and IMAGINARY_FIELD in reasons
    ok, reasons = vanishing_applies(2, order_invariants(make_order(2)))
    assert ok and reasons == ()
    ok, reasons = vanishing_applies(4, order_invariants(make_order(10)))
    assert not ok and reasons == (SIGNATURE_TOO_SMALL,)
    ok, reasons = vanishing_applies(2, order_invariants(ZZ))
    assert not ok and reasons == (SIGNATURE_TOO_SMALL,)
    ok, reasons = vanishing_applies(3, order_invariants(ZZ))
    assert not ok and PARITY_ODD in reasons and SIGNATURE_TOO_SMALL in reasons
    with pytest.raises(ValueError):
        vanishing_applies(1, order_invariants(ZZ))


def test_lower_bounds():
    # norm -1 and even rank: duality pairs the module with a twist, no bound
    assert nonvanishing_lower_bound(2, order_invariants(make_order(10))) is None
    assert nonvanishing_lower_bound(2, order_invariants(ZZ)) is None
    # odd rank or missing norm -1: bound (h - 1)^(n-1)
    assert nonvanishing_lower_bound(2, order_invariants(make_order(34))) == 1  # h = 2
    assert nonvanishing_lower_bound(3, order_invariants(make_order(10))) == 1
    assert nonvanishing_lower_bound(2, order_invariants(make_order(-23))) == 2  # h = 3
    assert nonvanishing_lower_bound(3, order_invariants(make_order(-23))) == 4
    assert nonvanishing_lower_bound(3, order_invariants(ZZ)) == 0
    with pytest.raises(ValueError, match="at least 2"):
        nonvanishing_lower_bound(1, order_invariants(make_order(-23)))


def test_lower_bound_cap_on_each_side():
    # the largest bound kept has LOWER_BOUND_DIGITS digits; one more
    # factor, or one more unit in the base, passes the cap
    assert LOWER_BOUND_DIGITS == 10_000
    inv = order_invariants(make_order(-23))  # h = 3, so the bound is 2^(n-1)
    assert 10**9999 <= 2**33219 < 10**10000 <= 2**33220
    assert nonvanishing_lower_bound(33220, inv) == 2**33219
    with pytest.raises(BudgetExceededError, match="more than 10000 digits"):
        nonvanishing_lower_bound(33221, inv)
    with pytest.raises(BudgetExceededError):
        nonvanishing_lower_bound(20_000_001, inv)
    # (10^100 - 1)^100 < 10^10000 = (10^100)^100, which has 10,001 digits
    below = SimpleNamespace(h=10**100, norm_minus_one=False)
    assert nonvanishing_lower_bound(101, below) == (10**100 - 1) ** 100
    with pytest.raises(BudgetExceededError):
        nonvanishing_lower_bound(101, SimpleNamespace(h=10**100 + 1, norm_minus_one=False))
    # bases 0 and 1 never pass it, and n even with a norm -1 unit has no bound
    for h in (1, 2):
        inv = SimpleNamespace(h=h, norm_minus_one=False)
        assert nonvanishing_lower_bound(20_000_001, inv) == h - 1
    inv = SimpleNamespace(h=10**100 + 1, norm_minus_one=True)
    assert nonvanishing_lower_bound(20_000_000, inv) is None


def test_lower_bound_is_the_power_below_the_cap():
    for h in range(1, 12):
        inv = SimpleNamespace(h=h, norm_minus_one=False)
        for n in range(2, 40):
            assert nonvanishing_lower_bound(n, inv) == (h - 1) ** (n - 1), (h, n)


@pytest.mark.parametrize("d", [2, 3, 5, 10, 34, -1, -5, -23, None])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dichotomy_is_exclusive_and_covering(d, n):
    inv = order_invariants(ZZ if d is None else make_order(d))
    ok, reasons = vanishing_applies(n, inv)
    bound = nonvanishing_lower_bound(n, inv)
    # vanishing never coexists with a stated lower bound
    assert not (ok and bound is not None)
    # with enough real and complex places, exactly one side speaks
    r, s = inv.signature
    if r + s >= n:
        assert ok == (bound is None)
    assert ok == (reasons == ())
