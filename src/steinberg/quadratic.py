"""Quadratic orders: exact units, class numbers and unit log embeddings.

Orders are the maximal orders Z[omega] of Q(sqrt(d)) for squarefree d.
Elements are stored as (a + b sqrt(d)) / denom with a uniform denominator:
2 when d = 1 mod 4 (with a = b mod 2), otherwise 1.  Norms and unit
tests are exact integer arithmetic.

The fundamental unit comes from the continued fraction of sqrt(d)
(d = 2, 3 mod 4) or (1 + sqrt(d))/2 (d = 1 mod 4): the small surd state
(P, Q) is stepped until Q returns to its start value (1, or 2 when
d = 1 mod 4), which ends the period, within CF_STEP_CAP steps.  The
partial quotients are then folded into the convergent p/q once, and
p - q * conj(omega) is the fundamental unit, its norm checked once to be
+-1; the negative-Pell verdict is its norm sign.  The quotients are
folded in a balanced product tree of 2x2 matrices, so a long period costs
quasi-linear time, not quadratic.  Class numbers come from reduced binary
quadratic forms of the field discriminant, counted, not listed: for
D < 0 each reduced form is counted as it is found; for D > 0 the
reduction cycles, which give the narrow class number, are counted as
orbits of the double step rho^2 on the reduced forms with a > 0.
Reduced forms are found by b and then by the divisors a of (b^2 - D)/4
that the reduction bounds allow: a from |b| to sqrt(ac) when D < 0, and
a > 0 inside the window s + 1 - b <= 2a <= s + b, s = isqrt(D), when
D > 0.  A discriminant with more than CLASS_B_CAP values of b raises
BudgetExceededError before any form is counted, so a large d answers or
fails at once.

order_invariants bundles what the verdicts read (unit, norm -1 verdict,
h, h_narrow) into one OrderInvariants record per order, built from one
unit and one class group computation and passed to every verdict; it
converts h_narrow to h with the unit norm.

log_embedding is the one floating-point output: the Dirichlet log vector
of a unit, computed in a fresh 50-digit decimal context (standard library
decimal, each step correctly rounded) and rounded to floats; for an
imaginary order it is (0.0,), since every unit has absolute value 1.

The d-absent integer specialization (the ring Z, signature (1,0)) is
provided for the rational case; its norm is the identity, so -1 is a unit
of norm -1.  order_invariants is the one place that specializes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context
from math import gcd, isqrt

from .errors import BudgetExceededError

CF_STEP_CAP = 10**6
# Partial quotients folded one by one before _convergent multiplies the
# folds in a balanced tree.
FOLD_LEAF = 32
# Values of b that class_group counts reduced forms for at most: about
# sqrt(D)/2 of them for D > 0 and sqrt(|D|/3)/2 for D < 0.  For D > 0 it
# walks rho^2 only over the forms with a > 0.
CLASS_B_CAP = 5000
# Bits of |a| and |b| that log_embedding keeps of a larger unit: far more
# than the 2 x 50 digits its decimal arithmetic can resolve.
LOG_KEEP_BITS = 1024


def is_squarefree(d: int) -> bool:
    """Whether d is squarefree, by trial division up to the cube root of |d|.

    0 and 1 count as not squarefree: neither names a quadratic field.
    Once every prime f with f^3 <= r is divided out of the cofactor r (each
    at most once, or d is not squarefree), the primes left in r all exceed
    its cube root, so r is 1, a prime, a product of two primes or a prime
    square, and only the last is a square.
    """
    if d in (0, 1):
        return False
    r = abs(d)
    if r % 4 == 0:
        return False
    if r % 2 == 0:
        r //= 2
    f = 3
    while f * f * f <= r:
        if r % f == 0:
            r //= f
            if r % f == 0:
                return False
        f += 2
    return not (r > 1 and isqrt(r) ** 2 == r)


@dataclass(frozen=True)
class RingElement:
    """(a + b sqrt(d)) / denom, with denom fixed by d mod 4."""

    d: int
    a: int
    b: int

    def __post_init__(self):
        if self.d % 4 == 1 and (self.a - self.b) % 2:
            raise ValueError("a and b must share parity when d = 1 mod 4")

    @property
    def denom(self) -> int:
        return 2 if self.d % 4 == 1 else 1

    def norm(self) -> int:
        num = self.a * self.a - self.d * self.b * self.b
        if self.denom == 2:
            if num % 4:
                raise AssertionError("norm not integral")
            return num // 4
        return num

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1


@dataclass(frozen=True)
class QuadraticOrder:
    """Maximal order of Q(sqrt(d)) for squarefree d not in {0, 1}."""

    d: int

    def __post_init__(self):
        if not is_squarefree(self.d):
            raise ValueError(f"d={self.d} must be squarefree and not 0 or 1")

    @property
    def discriminant(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    @property
    def signature(self):
        return (2, 0) if self.d > 0 else (0, 1)


class RationalIntegers:
    """The ring Z (the d-absent specialization): norm is the identity."""

    d = None
    discriminant = 1
    signature = (1, 0)

    def __repr__(self):
        return "RationalIntegers()"


ZZ = RationalIntegers()


def make_order(d: int) -> QuadraticOrder:
    return QuadraticOrder(d)


def _convergent(quotients):
    """(p, q) with p/q the continued fraction [a_0; a_1, ..., a_k] of the quotients.

    The product of the matrices ((a, 1), (1, 0)) over the quotients is
    ((p, p'), (q, q')), with p'/q' the convergent before p/q.  Runs of
    FOLD_LEAF quotients are folded one by one into such a matrix, and the
    runs' matrices are multiplied in a balanced tree, so the large factors
    of a long period are multiplied in pairs of equal size instead of
    growing one quotient at a time.
    """
    level = []
    for i in range(0, len(quotients), FOLD_LEAF):
        p, p_prev, q, q_prev = 1, 0, 0, 1
        for a in quotients[i:i + FOLD_LEAF]:
            p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
        level.append((p, p_prev, q, q_prev))
    while len(level) > 1:
        paired = []
        for i in range(0, len(level) - 1, 2):
            (p, pp, q, qp), (r, rp, t, tp) = level[i], level[i + 1]
            paired.append((p * r + pp * t, p * rp + pp * tp, q * r + qp * t, q * rp + qp * tp))
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0][0], level[0][2]


def fundamental_unit(order: QuadraticOrder) -> RingElement:
    """Smallest unit greater than 1, by continued-fraction convergents.

    Raises ValueError for imaginary orders (unit rank 0) and
    BudgetExceededError (a RuntimeError) if the period exceeds the step
    cap.
    """
    d = order.d
    if d < 0:
        raise ValueError("imaginary quadratic orders have no fundamental unit")
    s = isqrt(d)
    half = d % 4 == 1
    P, Q = (1, 2) if half else (0, 1)
    start = Q
    # The period of omega ends when Q returns to its start value; only the
    # small surd state (P + sqrt(d))/Q, with Q | d - P^2, is stepped until
    # then.
    quotients = []
    while True:
        if len(quotients) == CF_STEP_CAP:
            raise BudgetExceededError(f"continued fraction period exceeds step cap {CF_STEP_CAP}")
        a = (P + s) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
        quotients.append(a)
        if Q == start:
            break
    # The convergent p/q of one period gives u = p - q * conj(omega): for
    # d = 1 mod 4, u = ((2p - q) + q sqrt(d)) / 2 with (2p - q)^2 - d q^2 =
    # +-4; otherwise u = p + q sqrt(d) with p^2 - d q^2 = +-1.
    p, q = _convergent(quotients)
    x = 2 * p - q if half else p
    if abs(x * x - d * q * q) != (4 if half else 1):
        raise AssertionError("period convergent is not a unit")
    return RingElement(d, x, q)


# ---------------------------------------------------------------------------
# Binary quadratic forms and class numbers.


def _b_values(D: int):
    """The b of the reduced forms of discriminant D, at most CLASS_B_CAP of them.

    b = D mod 2 makes 4 | b^2 - D.  For D < 0 they are 0 <= b with 3 b^2 <=
    |D| (since b^2 <= ac); for D > 0, 0 < b <= isqrt(D).
    """
    if D < 0:
        bs = range(D % 2, isqrt(-D // 3) + 1, 2)
    else:
        bs = range(2 - D % 2, isqrt(D) + 1, 2)
    if len(bs) > CLASS_B_CAP:
        raise BudgetExceededError(
            f"reduced forms of discriminant {D} need {len(bs)} values of b, over the cap {CLASS_B_CAP}"
        )
    return bs


def _definite_forms(D: int):
    # Primitive reduced forms (a, b, c) with b >= 0: |b| <= a <= c, found
    # by b and then by the divisors a <= sqrt(ac) of ac = (b^2 - D)/4 with
    # a >= b.  (a, -b, c) is reduced too exactly when 0 < b < a < c.
    for b in _b_values(D):
        m = (b * b - D) // 4
        for a in range(max(b, 1), isqrt(m) + 1):
            if m % a == 0 and gcd(gcd(a, b), m // a) == 1:
                yield a, b, m // a


def _indefinite_forms(D: int):
    # Primitive reduced forms (a, b, c) with a > 0.  Reduced: 0 < b <
    # sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b; D is not a square, so
    # with s = isqrt(D) that is b <= s and s + 1 - b <= 2|a| <= s + b.  The
    # window bounds only |a|, so (-a, b, -c) is reduced exactly when
    # (a, b, c) is.  |a| and |c| divide m = (D - b^2)/4 = -ac inside the
    # window, so trial division runs from its lower end up to sqrt(m): each
    # f found there is in it (f <= sqrt(m) < (sqrt(D) + b)/2), and so is
    # m/f >= f when m/f <= (s + b)/2.
    s = isqrt(D)
    for b in _b_values(D):
        m = (D - b * b) // 4
        hi = (s + b) // 2
        for f in range((s - b) // 2 + 1, isqrt(m) + 1):
            if m % f == 0 and gcd(gcd(f, b), m // f) == 1:
                yield f, b, -(m // f)
                if f * f != m and m // f <= hi:
                    yield m // f, b, -f


def class_group(order: QuadraticOrder) -> int:
    """Narrow class number, by counting reduced binary quadratic forms of discriminant D.

    D < 0: reduced primitive positive definite forms biject with the class
    group (narrow and wide agree); a form with b >= 0 counts twice when
    0 < b < a < c, for itself and (a, -b, c).  D > 0: cycles of reduced
    forms under the reduction step rho biject with the narrow class group
    (order_invariants halves it when the unit has norm +1).  Each step
    flips the sign of a, so the forms with a > 0 of one cycle are one orbit
    of rho^2, and those orbits are counted, two steps per turn.  A step
    that leaves the reduced forms raises AssertionError: the first by the
    window inequalities, the second by membership among the forms not yet
    walked.  More than CLASS_B_CAP values of b raise BudgetExceededError
    before any form is counted.
    """
    D = order.discriminant
    if D < 0:
        return sum(2 if 0 < b < a < c else 1 for a, b, c in _definite_forms(D))
    s = isqrt(D)
    todo = set(_indefinite_forms(D))
    h = 0
    while todo:
        a, b, c = start = todo.pop()
        h += 1
        while True:
            # rho: (a, b, c) -> (c, b2, (b2^2 - D) / 4c), b2 the largest
            # value -b mod 2|c| below sqrt(D); here c < 0, then c2 > 0.
            t = -2 * c
            b = t * ((s + b) // t) - b
            a, c = c, (b * b - D) // (4 * c)
            if not s + 1 - b <= t <= s + b:
                raise AssertionError(f"reduction left the reduced set: {(a, b, c)}")
            t = 2 * c
            b = t * ((s + b) // t) - b
            a, c = c, (b * b - D) // (4 * c)
            form = (a, b, c)
            if form == start:
                break
            if form not in todo:
                raise AssertionError(f"reduction left the reduced set: {form}")
            todo.remove(form)
    return h


@dataclass(frozen=True)
class OrderInvariants:
    """The invariants the verdicts read, computed once per order.

    unit is the fundamental unit (None for Z and imaginary orders);
    norm_minus_one says whether some unit has norm -1.
    """

    d: int | None
    discriminant: int
    signature: tuple
    unit: RingElement | None
    norm_minus_one: bool
    h: int
    h_narrow: int

    def descriptor(self) -> dict:
        """JSON-ready descriptor of the order and its invariants."""
        u = self.unit
        unit = None if u is None else {"a": u.a, "b": u.b, "denom": u.denom, "norm": u.norm()}
        return {
            "d": self.d,
            "D": self.discriminant,
            "signature": list(self.signature),
            "fundamental_unit": unit,
            "h": self.h,
            "h_narrow": self.h_narrow,
            "norm_minus_one": self.norm_minus_one,
        }


def order_invariants(order) -> OrderInvariants:
    """The order's invariants from one unit and one class group computation.

    Z has h = 1 and the unit -1 of norm -1, but no fundamental unit.
    Imaginary orders have only roots of unity, all of norm +1, and h equals
    h_narrow.  A real order has h = h_narrow when its fundamental unit has
    norm -1 and h = h_narrow / 2 otherwise.
    """
    if isinstance(order, RationalIntegers):
        return OrderInvariants(None, 1, order.signature, None, True, 1, 1)
    # The class group's cap on b decides a large d before the unit's
    # convergents, whose size grows with the period, are formed.
    h_narrow = class_group(order)
    unit = fundamental_unit(order) if order.d > 0 else None
    minus = unit is not None and unit.norm() == -1
    h = h_narrow
    if unit is not None and not minus:
        if h_narrow % 2:
            raise AssertionError("narrow class number must be even here")
        h = h_narrow // 2
    return OrderInvariants(
        order.d, order.discriminant, order.signature, unit, minus, h, h_narrow
    )


# ---------------------------------------------------------------------------
# Embeddings.


def log_embedding(order: QuadraticOrder, u: RingElement):
    """Dirichlet log vector of a unit, one coordinate per infinite place.

    Real orders: (log|u|, log|u'|) for the two real embeddings, computed in
    a fresh 50-digit decimal context with the full exponent range, in which
    each step (sqrt, multiply, add, divide, ln) is correctly rounded, then
    returned as floats.  For a real unit |u u'| = 1, so only
    L = log((|a| + |b| sqrt d)/denom), the larger of the two, is computed
    (no cancellation); the other coordinate is -L exactly, and the pair
    sums to exactly 0.  Imaginary orders: (0.0,), the doubled complex
    coordinate 2 log|u|, since every unit has |u|^2 = N(u) = 1.

    When |a| and |b| both pass LOG_KEEP_BITS bits, both are shifted right
    by the same s bits, keeping at least LOG_KEEP_BITS of each (a relative
    error below 2^-1023, far under the 50 digits), and s ln 2 is added
    back in the same context; so no whole huge integer becomes a Decimal.
    Smaller units take the unshifted path.
    """
    if not isinstance(u, RingElement) or u.d != order.d:
        raise ValueError("element does not belong to the order")
    if not u.is_unit():
        raise ValueError("log embedding defined here for units only")
    if order.d < 0:
        return (0.0,)
    a, b = abs(u.a), abs(u.b)
    shift = max(0, min(a.bit_length(), b.bit_length()) - LOG_KEEP_BITS)
    c = Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)
    size = c.add(a >> shift, c.multiply(b >> shift, c.sqrt(order.d)))
    big = c.ln(c.divide(size, u.denom))
    if shift:
        big = c.add(big, c.multiply(shift, c.ln(2)))
    big = float(big)
    return (-big, big) if u.a < 0 < u.b or u.b < 0 < u.a else (big, -big)
