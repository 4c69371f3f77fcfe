"""Exact integer and rational primitives behind every orbit decision.

Classifying periodic integer orbits of x -> x**m - k comes down to ordering
integers against two irrational landmarks on the positive axis:

* the *max fixed point*: the positive root of x**m - x - k (it exceeds 1
  whenever k >= 1, and every periodic point of the map lies in the interval
  it bounds);
* the *band floor* (k - fix)**(1/m), defined for k >= 2: seeds at or above
  it keep their next iterate inside [-fix, fix], seeds below it are thrown
  past -fix and never return.

The rational-parameter family x -> x**2 - q that integer quadratics reduce
to under an affine change of coordinates has the same two landmarks.  Every
ordering in both families is one exact sign test on scaled integers: a test
point n/d (d > 0) against the larger root of x**m - x - qn/qd is decided by
the sign of qd*(n**m - n*d**(m-1)) - qn*d**m (the power family is qd = 1,
the q-family m = 2), and the band floor side is the reversed fixed-point
side of q - x**m.  No floating point is used anywhere in a decision.

The integer floor of the fixed point (both families) is the integer root
of floor(q) plus at most one step of that sign test.  Decimal output, which
exists solely for plots and reports, bisects on scaled integers (the test
point mid / 10**digits, never a Fraction) and carries a certified error
bound.  In degree 2 both landmarks have closed forms in square roots,
fix = (1 + sqrt(1 + 4q))/2 and floor = sqrt(q - fix), so math.isqrt
brackets them within two units of 10**-digits and the bisection needs at
most one sign test; degree m >= 3 bisects the whole range [0, floor(fix) + 1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Side",
    "DecimalApprox",
    "iroot",
    "frac_side_of_max_fixed_point",
    "frac_side_of_band_floor",
    "max_fixed_point_floor",
    "compare_to_max_fixed_point_q",
    "compare_to_band_floor_q",
    "band_floor_is_real_q",
    "max_fixed_point_floor_q",
    "approx_max_fixed_point",
    "approx_band_floor",
    "approx_max_fixed_point_q",
    "approx_band_floor_q",
    "format_decimal",
]


class Side(enum.Enum):
    """Position of a test point relative to an irrational landmark."""

    BELOW = -1
    EQUAL = 0
    ABOVE = 1


# ====================================================================
# integer roots
# ====================================================================


def iroot(n: int, m: int) -> int:
    """Largest r >= 0 with r**m <= n, for n >= 0 and m >= 1.

    Even degrees go through math.isqrt: for m = 2j, r**m <= n exactly when
    r**j <= isqrt(n), since r**j is an integer.  So iroot(n, 2j) is
    iroot(isqrt(n), j), halving m while it is even; only an odd degree
    m >= 3 that is left runs Newton's iteration.  No float is involved.
    """
    if m < 1:
        raise ValueError("root degree must be >= 1")
    if n < 0:
        raise ValueError("iroot of negative integer")
    while m % 2 == 0:
        n, m = math.isqrt(n), m // 2
    if m == 1 or n <= 1:
        return n
    # Newton iteration started from a power-of-two bound above the root.
    r = 1 << -(-n.bit_length() // m)
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            break
        r = s
    while r**m > n:
        r -= 1
    while (r + 1) ** m <= n:
        r += 1
    return r


# ====================================================================
# the exact sign test behind every side predicate
# ====================================================================


def _fix_sign(n: int, d: int, m: int, qn: int, qd: int) -> int:
    """-1, 0 or 1 as n/d (d > 0) is below, at or above the larger root of
    x**m - x - qn/qd (qd > 0).

    Callers guarantee that root is real and at least 1/2: the power family
    (qd == 1, k >= 1) or the q-family (m == 2, 1 + 4q >= 0).  From 1/2 up
    the form is negative before the root and positive after it, so the sign
    of qd*d**m * (x**m - x - q) decides.
    """
    if 2 * n < d:
        return -1
    s = qd * (n**m - n * d ** (m - 1)) - qn * d**m
    return (s > 0) - (s < 0)


def _floor_sign(n: int, d: int, m: int, qn: int, qd: int) -> int:
    """-1, 0 or 1 as n/d >= 0 is below, at or above the real band floor
    (q - fix)**(1/m): x >= floor iff x**m >= q - fix iff fix >= t = q - x**m,
    so it is the reversed fixed-point side of t.
    """
    return -_fix_sign(qn * d**m - qd * n**m, qd * d**m, m, qn, qd)


def _fix_floor(m: int, qn: int, qd: int) -> int:
    """Largest integer at or below the larger root of x**m - x - qn/qd.

    The root r solves r**m = r + q, so q**(1/m) <= r <= q**(1/m) + 1 for
    q >= 0 (and 1/2 <= r < 1 for q < 0): the integer root of floor(q) is at
    most one step short.  At integers x >= 1 the sign test reads: x is
    above the root iff qd*(x**m - x) > qn.
    """
    n = iroot(max(qn // qd, 0), m)
    while qd * ((n + 1) ** m - (n + 1)) <= qn:
        n += 1
    return n


_SIDES = (Side.EQUAL, Side.ABOVE, Side.BELOW)  # indexed by the sign 0, 1, -1


# ====================================================================
# side predicates for the integer family x -> x**m - k
# ====================================================================


def _check_family(m: int, k: int) -> None:
    if m < 2:
        raise ValueError("degree must be >= 2")
    if k < 1:
        raise ValueError("shift must be >= 1 (max fixed point above 1)")


def _ratio(x) -> tuple[int, int]:
    x = Fraction(x)
    return x.numerator, x.denominator


def frac_side_of_max_fixed_point(x: Fraction | int, m: int, k: int, *, unit=None) -> Side:
    """Order a rational x (an int included) against the largest fixed point
    of x -> x**m - k, m >= 2 and k >= 1.

    The fixed point is the positive root of x**m - x - k and lies above 1;
    from 1/2 up that form is increasing, so its sign at x decides there.
    Every x < 1/2, zero and the negatives included, is answered BELOW.

    With `unit`, the test point is the scaled integer x / unit and (m, k)
    are taken as already checked: certified bisection calls it this way, so
    a step builds no Fraction and repeats no check.
    """
    if unit is None:
        _check_family(m, k)
        x, unit = _ratio(x)
    return _SIDES[_fix_sign(x, unit, m, k, 1)]


def frac_side_of_band_floor(x: Fraction | int, m: int, k: int, *, unit=None) -> Side:
    """Order a rational x >= 0 (an int included) against the band floor
    (k - fix)**(1/m) of x -> x**m - k, real for k >= 2.

    `unit` works as in frac_side_of_max_fixed_point.
    """
    if unit is None:
        x, unit = _ratio(x)
        if x < 0:
            raise ValueError("band floor comparisons need x >= 0")
        if k < 2:
            raise ValueError("band floor is real only for k >= 2")
        _check_family(m, k)
    return _SIDES[_floor_sign(x, unit, m, k, 1)]


def max_fixed_point_floor(m: int, k: int) -> int:
    """Largest integer at or below the max fixed point of x -> x**m - k."""
    _check_family(m, k)
    return _fix_floor(m, k, 1)


# ====================================================================
# side predicates for the rational family x -> x**2 - q
# ====================================================================


def _check_q(q) -> Fraction:
    q = Fraction(q)
    # 1 + 4q < 0, decided on the integers (the denominator is positive)
    if q.denominator + 4 * q.numerator < 0:
        raise ValueError("no real fixed points: 1 + 4q < 0")
    return q


def compare_to_max_fixed_point_q(x: Fraction | int, q: Fraction, *, unit=None) -> Side:
    """Order a rational x against the larger fixed point of x -> x**2 - q.

    That fixed point is (1 + sqrt(1 + 4q)) / 2 >= 1/2; the quadratic form
    x**2 - x - q is increasing for x >= 1/2 so its sign decides there, and
    x < 1/2 is always BELOW.  With `unit`, the test point is x / unit and q
    is a Fraction already checked (see frac_side_of_max_fixed_point).
    """
    if unit is None:
        q = _check_q(q)
        x, unit = _ratio(x)
    return _SIDES[_fix_sign(x, unit, 2, q.numerator, q.denominator)]


def band_floor_is_real_q(q: Fraction) -> bool:
    """Whether sqrt(q - fix) is real, i.e. q is at or above its own fixed point."""
    q = _check_q(q)
    return _fix_sign(q.numerator, q.denominator, 2, q.numerator, q.denominator) >= 0


def compare_to_band_floor_q(x: Fraction | int, q: Fraction, *, unit=None) -> Side:
    """Order a rational x >= 0 against sqrt(q - fix) for x -> x**2 - q.

    `unit` works as in compare_to_max_fixed_point_q.
    """
    if unit is None:
        q = Fraction(q)
        x, unit = _ratio(x)
        if x < 0:
            raise ValueError("band floor comparisons need x >= 0")
        if not band_floor_is_real_q(q):
            raise ValueError("band floor is real only when q >= its fixed point")
    return _SIDES[_floor_sign(x, unit, 2, q.numerator, q.denominator)]


def max_fixed_point_floor_q(q: Fraction) -> int:
    """Largest integer at or below the larger fixed point of x -> x**2 - q."""
    q = _check_q(q)
    return _fix_floor(2, q.numerator, q.denominator)


# ====================================================================
# certified decimal snapshots
# ====================================================================


@dataclass(frozen=True)
class DecimalApprox:
    """Decimal snapshot of an exact real: |true value - value| <= error_bound.

    value holds exactly `digits` places after the point; error_bound is an
    exact rational, never above 10**-digits.
    """

    value: str
    digits: int
    error_bound: Fraction

    def as_fraction(self) -> Fraction:
        return Fraction(self.value)


def format_decimal(scaled: int, digits: int) -> str:
    """Render scaled / 10**digits with exactly `digits` decimal places."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    unit = 10**digits
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // unit}.{scaled % unit:0{digits}d}"


def _unit(digits: int) -> int:
    """The scale 10**digits of a certified decimal; digits must be >= 1."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return 10**digits


def _fix_bracket(qn: int, qd: int, unit: int) -> tuple[int, int]:
    """(g - 1, g + 1) for g = floor(unit*fix), fix the larger root of
    x**2 - x - qn/qd (1 + 4q >= 0); the low end is 0 when g - 1 < 0.

    unit*fix = (unit*qd + sqrt(s)) / (2*qd) with s = unit**2*qd*(qd + 4*qn).
    As r = isqrt(s) <= sqrt(s) < r + 1, unit*fix lies in [N, N + 1) / (2*qd)
    for the integer N = unit*qd + r, and so in [g, g + 1) for g = N // (2*qd).
    The one sign test left, at g, tells whether unit*fix is g exactly.
    """
    g = (unit * qd + math.isqrt(unit * unit * qd * (qd + 4 * qn))) // (2 * qd)
    return max(g - 1, 0), g + 1


def _floor_bracket(qn: int, qd: int, unit: int) -> tuple[int, int]:
    """(lo, hi) with lo < unit*floor < hi, or lo = 0, for the real band floor
    floor = sqrt(q - fix) of x**2 - qn/qd; hi - lo <= 2.

    With g2 = floor(unit**2*fix) from _fix_bracket and a = floor(unit**2*q),
    (unit*floor)**2 = unit**2*(q - fix) lies strictly between a - g2 - 1 and
    a + 1 - g2 (which is at least 1, as q >= fix).  No two squares but 0
    and 1 lie within 2 of each other, so the integer roots of the two ends
    differ by at most 1.
    """
    scale = unit * unit
    g2 = _fix_bracket(qn, qd, scale)[1] - 1
    a = scale * qn // qd
    return math.isqrt(max(a - g2 - 1, 0)), math.isqrt(a + 1 - g2) + 1


def _bisect_decimal(side_of, params: tuple, digits: int, lo: int, hi: int) -> DecimalApprox:
    """Certified decimal floor of a landmark in (lo, hi) scaled units.

    lo must be below the landmark (it is never tested) unless it is 0, and
    hi above it; digits >= 1 was checked by the caller (_unit).
    side_of(n, *params, unit=unit) must report the position of the test
    point n / unit relative to the landmark; the caller has checked params
    once, so the steps repeat no check and build no Fraction.  Bisection
    keeps the landmark in [lo, hi); an exact hit short-circuits with
    error_bound 0, so the result does not depend on the bracket.
    """
    unit = 10**digits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        side = side_of(mid, *params, unit=unit)
        if side is Side.EQUAL:
            return DecimalApprox(format_decimal(mid, digits), digits, Fraction(0))
        if side is Side.BELOW:
            lo = mid
        else:
            hi = mid
    return DecimalApprox(format_decimal(lo, digits), digits, Fraction(1, unit))


def approx_max_fixed_point(m: int, k: int, digits: int) -> DecimalApprox:
    """Certified decimal for the max fixed point of x -> x**m - k."""
    _check_family(m, k)
    unit = _unit(digits)
    if m == 2:
        lo, hi = _fix_bracket(k, 1, unit)
    else:
        lo, hi = 0, (max_fixed_point_floor(m, k) + 1) * unit
    return _bisect_decimal(frac_side_of_max_fixed_point, (m, k), digits, lo, hi)


def approx_band_floor(m: int, k: int, digits: int) -> DecimalApprox:
    """Certified decimal for the band floor of x -> x**m - k (k >= 2)."""
    if k < 2:
        raise ValueError("band floor is real only for k >= 2")
    _check_family(m, k)
    unit = _unit(digits)
    if m == 2:
        lo, hi = _floor_bracket(k, 1, unit)
    else:  # the floor never exceeds the fixed point
        lo, hi = 0, (max_fixed_point_floor(m, k) + 1) * unit
    return _bisect_decimal(frac_side_of_band_floor, (m, k), digits, lo, hi)


def approx_max_fixed_point_q(q: Fraction, digits: int) -> DecimalApprox:
    """Certified decimal for the larger fixed point of x -> x**2 - q."""
    q = _check_q(q)
    lo, hi = _fix_bracket(q.numerator, q.denominator, _unit(digits))
    return _bisect_decimal(compare_to_max_fixed_point_q, (q,), digits, lo, hi)


def approx_band_floor_q(q: Fraction, digits: int) -> DecimalApprox:
    """Certified decimal for sqrt(q - fix) of x -> x**2 - q, when real."""
    q = Fraction(q)
    if not band_floor_is_real_q(q):
        raise ValueError("band floor is real only when q >= its fixed point")
    lo, hi = _floor_bracket(q.numerator, q.denominator, _unit(digits))
    return _bisect_decimal(compare_to_band_floor_q, (q,), digits, lo, hi)
