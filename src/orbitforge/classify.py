"""Complete classification of periodic integer orbits.

For x -> x**m - k every periodic integer point is a fixed point except in
degree 2 (and the single {-1, 0} orbit at shift 1 in higher even degree):

* degree 2 has the integer fixed points {j+1, -j} exactly when k = j*(j+1)
  (1 + 4k an odd perfect square) and the 2-cycle {j, -(j+1)} exactly when
  k = j*(j+1) + 1; every other integer seed diverges;
* odd degree >= 3 admits integer fixed points only (at k = j**m - j);
* even degree >= 4 admits integer fixed points only, plus the 2-cycle
  {-1, 0} at k = 1.

One discriminant rule decides every integer quadratic a*x**2 + b*x + c
(degree 2 above is the case a = 1, b = 0, c = -k).  With
D = (b-1)**2 - 4*a*c, a rational fixed point needs D = r**2, giving the
points (1 - b +- r)/(2a); a rational 2-cycle needs D - 4 = t**2 with t > 0,
giving (-1 - b +- t)/(2a); the two never hold together, and no integer
quadratic has an integral cycle of higher period.  The witness is j = r // 2 (or t // 2):
for even b, q = b*(b-2)/4 - a*c is j*(j+1) ("pronic") or j*(j+1) + 1
("pronic_plus_one"); for odd b, ((b-1)/2)**2 - a*c is j**2 ("square") or
j**2 + 1 ("square_plus_one").  Only the integral points are reported, each
re-verified by substitution.

The band accounting below is for the integer family x**m - k alone.  The
rational family x**2 - q that the reduction reaches lives in the kernel
(its q-predicates and certified decimals) and in the CLI's bounds table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .kernel import (
    Side,
    approx_band_floor,
    approx_max_fixed_point,
    frac_side_of_band_floor,
    frac_side_of_max_fixed_point,
    iroot,
    max_fixed_point_floor,
)
from .maps import PowerMap, QuadMap

__all__ = [
    "Cycle",
    "OrbitClassification",
    "GapReport",
    "DIVERGES_UP",
    "DIVERGES_DOWN",
    "DIVERGES_SPLIT",
    "ALL_FIXED",
    "power_fixed_points",
    "classify_power",
    "classify_quad",
    "solve_pronic",
    "band_integers",
    "band_gap_checks",
    "band_width_decimal",
    "band_width_exceeds_one",
]

# non-periodic seed behavior tags
DIVERGES_UP = "diverges_to_plus_inf"
DIVERGES_DOWN = "diverges_to_minus_inf"
DIVERGES_SPLIT = "diverges_sign_split"
ALL_FIXED = "all_seeds_fixed"


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit in canonical rotation: smallest point first."""

    period: int
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.period != len(self.points) or self.period < 1:
            raise ValueError("period must match the number of points")
        if len(set(self.points)) != self.period:
            raise ValueError("cycle points must be distinct")
        if self.points[0] != min(self.points):
            raise ValueError("cycle must start at its smallest point")

    @classmethod
    def from_points(cls, points: Iterable[int]) -> "Cycle":
        pts = list(points)
        pivot = pts.index(min(pts))
        return cls(len(pts), tuple(pts[pivot:] + pts[:pivot]))


@dataclass(frozen=True)
class OrbitClassification:
    """Everything periodic about a map, plus what the other seeds do.

    behavior describes the non-periodic seeds (or ALL_FIXED for the
    identity).  witness/condition name the parameter family that produced
    the cycles, when one applies.  An oracle-produced classification leaves
    behavior as None: the oracle observes cycles, it does not prove limits.
    """

    fixed_points: tuple[int, ...]
    two_cycles: tuple[Cycle, ...]
    higher_cycles: tuple[Cycle, ...]
    behavior: str | None
    witness: int | None = None
    condition: str | None = None


def _rational_cycle(a: int, b: int, c: int) -> tuple[int, int, str, tuple[int, ...]] | None:
    """Rational fixed points or 2-cycle of x -> a*x**2 + b*x + c, by discriminant.

    With D = (b-1)**2 - 4*a*c, the fixed points (1 - b +- r)/(2a) are rational
    exactly when D = r**2; otherwise the 2-cycle (-1 - b +- t)/(2a), the roots
    of a**2*x**2 + a*(b+1)*x + (a*c + b + 1) with discriminant a**2*(D - 4),
    is rational exactly when D - 4 = t**2 with t > 0.  Both cannot hold, since
    r**2 - t**2 = 4 forces t = 0.  Returns (period, j, condition, roots) with
    j = r // 2 (or t // 2), the condition named by the parity of b, and only
    the roots that are integers; None when neither holds.
    """
    disc = (b - 1) ** 2 - 4 * a * c
    r = math.isqrt(disc) if disc >= 0 else -1
    if r * r == disc:
        period, root, top = 1, r, 1 - b
    else:
        t = math.isqrt(disc - 4) if disc > 4 else 0
        if t * t != disc - 4:  # t > 0 here: disc = 4 is a square
            return None
        period, root, top = 2, t, -1 - b
    roots = tuple(n // (2 * a) for n in (top + root, top - root) if n % (2 * a) == 0)
    names = ("pronic", "pronic_plus_one") if b % 2 == 0 else ("square", "square_plus_one")
    return period, root // 2, names[period - 1], roots


def solve_pronic(n: int) -> tuple[int, str] | None:
    """Recognize n = j*(j+1) or n = j*(j+1) + 1 with j >= 0.

    Returns (j, "pronic") or (j, "pronic_plus_one"); None otherwise.  The two
    families are disjoint, and j >= 0 covers all integer solutions because
    j and -(j+1) give the same product.  This is the discriminant rule for
    x -> x**2 - n.
    """
    hit = _rational_cycle(1, 0, -n)
    return None if hit is None else (hit[1], hit[2])


# ====================================================================
# power maps
# ====================================================================


def power_fixed_points(power: PowerMap) -> list[int]:
    """All integers j with j**m - j == shift, verified by substitution.

    Beyond {-1, 0, 1} one candidate per sign is exact, with r = iroot(|k|, m):
    a root j >= 2 has (j-1)**m < k < j**m, so j = r + 1; a root -t with
    t >= 2 has t**m < k < (t+1)**m for even m, so t = r, and
    (t-1)**m < -k < t**m for odd m, so t = r + 1.

    Degree 1 returns [] always: x - k == x has no solution for k != 0, and
    for k == 0 every integer is fixed (callers tag that case ALL_FIXED
    rather than enumerate it).
    """
    m, k = power.degree, power.shift
    if m == 1:
        return []
    r = iroot(abs(k), m)
    candidates = {-1, 0, 1, r + 1, -r if m % 2 == 0 else -r - 1}
    return sorted(j for j in candidates if j**m - j == k)


def _verified_two_cycle(the_map, p: int, s: int) -> tuple[Cycle, ...]:
    if p != s and the_map(p) == s and the_map(s) == p:
        return (Cycle.from_points([p, s]),)
    return ()


def classify_power(power: PowerMap) -> OrbitClassification:
    """Exact periodic-orbit answer for x -> x**degree - shift."""
    m, k = power.degree, power.shift
    if m == 1:
        if k == 0:
            return OrbitClassification((), (), (), ALL_FIXED)
        return OrbitClassification((), (), (), DIVERGES_UP if k < 0 else DIVERGES_DOWN)
    if m == 2:
        return classify_quad(QuadMap(1, 0, -k))
    fixed = tuple(power_fixed_points(power))
    behavior = DIVERGES_SPLIT if m % 2 else DIVERGES_UP
    if m % 2 == 0 and k == 1:
        cyc = _verified_two_cycle(power, -1, 0)
        return OrbitClassification(fixed, cyc, (), behavior, 0, "even_degree_shift_one")
    return OrbitClassification(fixed, (), (), behavior)


# ====================================================================
# integer quadratics
# ====================================================================


def classify_quad(quad: QuadMap) -> OrbitClassification:
    """Exact periodic-orbit answer for a*x**2 + b*x + c.

    The discriminant rule (_rational_cycle) names the rational fixed points
    or the rational 2-cycle; only their integral points that survive substitution are
    reported, and a 2-cycle needs both.  Divergent seeds follow the sign of
    the leading coefficient.
    """
    behavior = DIVERGES_UP if quad.a > 0 else DIVERGES_DOWN
    hit = _rational_cycle(quad.a, quad.b, quad.c)
    if hit is None:
        return OrbitClassification((), (), (), behavior)
    period, j, condition, roots = hit
    if period == 1:
        fixed = tuple(sorted({p for p in roots if quad(p) == p}))
        return OrbitClassification(fixed, (), (), behavior, j, condition)
    cyc = _verified_two_cycle(quad, *roots) if len(roots) == 2 else ()
    return OrbitClassification((), cyc, (), behavior, j, condition)


# ====================================================================
# the band [floor, fix] and its integer content
# ====================================================================


def band_integers(m: int, k: int) -> list[int]:
    """All integers n >= 0 with band floor <= n <= max fixed point.

    Decided purely by the exact side predicates.  The answer is a contiguous
    range up to the floor of the max fixed point; its least element is found
    by walking down from that top while the integer below is not below the
    band floor (the band holds at most 3 integers).  Requires even degree
    and k >= 2.
    """
    if m < 2 or m % 2:
        raise ValueError("the band is defined for even degree")
    if k < 2:
        raise ValueError("band floor is real only for k >= 2")
    top = max_fixed_point_floor(m, k)
    lo = top + 1
    while lo > 0 and frac_side_of_band_floor(lo - 1, m, k) is not Side.BELOW:
        lo -= 1
    return list(range(lo, top + 1))


@dataclass(frozen=True)
class GapReport:
    """Result of the exact band-width checks over a shift range."""

    k_max: int
    ok: bool
    first_violation: int | None
    checked: int


def band_gap_checks(k_max: int) -> GapReport:
    """Verify, for every k in [2, k_max], the degree-2 band-width facts.

    Exact integer consequences of floor >= fix - 2 and floor < fix - 1:

    * fix >= 2 (equivalent to floor >= fix - 2 after squaring both sides
      through fix**2 == fix + k);
    * the band holds at least one integer (width exceeds 1), so the integer
      floor(fix) is at or above the band floor;
    * floor(fix) - 2 is at or below the band floor;
    * between 1 and 3 integers lie in the band.

    Stops at the first violation.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    for k in range(2, k_max + 1):
        top = max_fixed_point_floor(2, k)
        ok = (
            frac_side_of_max_fixed_point(2, 2, k) is not Side.ABOVE
            and frac_side_of_band_floor(top, 2, k) is not Side.BELOW
            and frac_side_of_band_floor(max(top - 2, 0), 2, k) is not Side.ABOVE
            and 1 <= len(band_integers(2, k)) <= 3
        )
        if not ok:
            return GapReport(k_max, False, k, k - 1)
    return GapReport(k_max, True, None, k_max - 1)


def band_width_decimal(k: int, digits: int) -> tuple[Fraction, Fraction]:
    """(width, error): certified decimal width fix - floor for degree 2."""
    top = approx_max_fixed_point(2, k, digits)
    low = approx_band_floor(2, k, digits)
    width = top.as_fraction() - low.as_fraction()
    return width, top.error_bound + low.error_bound


def band_width_exceeds_one(k: int) -> bool:
    """Exact check that fix - floor > 1 in degree 2, via a rational witness.

    Find a rational r with floor <= r and r + 1 < fix; then
    floor + 1 <= r + 1 < fix.  A certified decimal bracket supplies r, in
    units of 10**-digits; the comparison of r + 1 against the fixed point is
    an exact sign test on the scaled integers.
    """
    if k < 2:
        raise ValueError("band floor is real only for k >= 2")
    for digits in (6, 12, 24, 48):
        unit = 10**digits
        low = approx_band_floor(2, k, digits)
        r = int(low.value.replace(".", "")) + 1  # floor <= r / unit
        if frac_side_of_max_fixed_point(r + unit, 2, k, unit=unit) is Side.BELOW:
            return True
    return False
