"""Dimension formulas and applicability predicates for GL_n over an order.

Signatures are pairs (r, s): r real embeddings and s conjugate pairs of
complex embeddings of the coefficient field (so (1, 0) for the rationals,
(2, 0) real quadratic, (0, 1) imaginary quadratic).  The verdicts take
the order's quadratic.OrderInvariants record and read its signature,
norm -1 verdict and class number from it.
"""

from __future__ import annotations

from .errors import BudgetExceededError

NORM_MINUS_ONE_MISSING = "NORM_MINUS_ONE_MISSING"
PARITY_ODD = "PARITY_ODD"
SIGNATURE_TOO_SMALL = "SIGNATURE_TOO_SMALL"
IMAGINARY_FIELD = "IMAGINARY_FIELD"

# nonvanishing_lower_bound refuses a bound of more than this many digits.
LOWER_BOUND_DIGITS = 10_000
_LOWER_BOUND_CAP = 10**LOWER_BOUND_DIGITS - 1


def _check_signature(n, r, s):
    if n < 1:
        raise ValueError("n must be positive")
    if r < 0 or s < 0 or r + s < 1:
        raise ValueError("signature needs r, s >= 0 and r + s >= 1")


def vcd_gl(n, r, s) -> int:
    """Virtual cohomological dimension of GL_n over an order of signature (r, s)."""
    _check_signature(n, r, s)
    return r * (n * (n + 1) // 2) + s * n * n - n


def vcd_sl(n, r, s) -> int:
    """Virtual cohomological dimension of SL_n over an order of signature (r, s)."""
    _check_signature(n, r, s)
    return vcd_gl(n, r, s) - r - s + 1


def bordification_dim(n, r, s) -> int:
    """Dimension of the bordified symmetric space; exceeds vcd_gl by n - 1."""
    _check_signature(n, r, s)
    return r * (n * (n + 1) // 2) + s * n * n - 1


def vanishing_applies(n, inv):
    """(applies, reasons) for the top-degree vanishing criterion.

    inv is the order's OrderInvariants.  Applies when all three hold: n is
    even, the order has a unit of norm -1, and the signature satisfies
    r + s >= n.  Failing hypotheses are named by stable reason codes.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    r, s = inv.signature
    reasons = []
    if n % 2 == 1:
        reasons.append(PARITY_ODD)
    if not inv.norm_minus_one:
        if s > 0:
            reasons.append(IMAGINARY_FIELD)
        else:
            reasons.append(NORM_MINUS_ONE_MISSING)
    if r + s < n:
        reasons.append(SIGNATURE_TOO_SMALL)
    return (not reasons, tuple(reasons))


def nonvanishing_lower_bound(n, inv):
    """(h - 1)^(n - 1) when n is odd or no norm -1 unit exists; else None.

    inv is the order's OrderInvariants; h is its wide class number.  None
    means the bound's hypotheses fail (n even with a norm -1 unit
    present), not a zero bound.  A bound of more than LOWER_BOUND_DIGITS
    decimal digits raises BudgetExceededError; the power is built by
    repeated squaring, and a square or partial product past the cap stops
    it, so no number past the cap's square is formed.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n % 2 == 0 and inv.norm_minus_one:
        return None
    base, exp = inv.h - 1, n - 1
    # A square past the cap means base >= 2, so every factor still to come
    # is at least 1 and the last is at least that square.
    bound = 1
    while exp:
        if exp & 1:
            bound *= base
        exp >>= 1
        if exp:
            base *= base
        if bound > _LOWER_BOUND_CAP or (exp and base > _LOWER_BOUND_CAP):
            raise BudgetExceededError(
                f"lower bound ({inv.h} - 1)^({n} - 1) has more than {LOWER_BOUND_DIGITS} digits"
            )
    return bound
