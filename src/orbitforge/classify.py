"""Complete classification of periodic integer orbits.

For x -> x**m - k every periodic integer point is a fixed point except in
degree 2 (and the single {-1, 0} orbit at shift 1 in higher even degree):

* degree 2 has the integer fixed points {j+1, -j} exactly when k = j*(j+1)
  (1 + 4k an odd perfect square) and the 2-cycle {j, -(j+1)} exactly when
  k = j*(j+1) + 1; every other integer seed diverges;
* odd degree >= 3 admits integer fixed points only (at k = j**m - j);
* even degree >= 4 admits integer fixed points only, plus the 2-cycle
  {-1, 0} at k = 1.

General integer quadratics a*x**2 + b*x + c reduce by the affine change
r = a*s + b/2 to x -> x**2 - q with q = b*(b-2)/4 - a*c, so their integral
cycles are the integral pull-backs of the normal form's rational cycles:
pronic conditions on q for even b, perfect-square conditions on
((b-1)/2)**2 - a*c for odd b.  Candidates produced by those conditions are
always re-verified by substitution before being reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .kernel import (
    DecimalApprox,
    Side,
    approx_band_floor,
    approx_band_floor_q,
    approx_max_fixed_point,
    approx_max_fixed_point_q,
    band_floor_is_real_q,
    compare_to_band_floor,
    compare_to_band_floor_q,
    compare_to_max_fixed_point,
    frac_side_of_max_fixed_point,
    iroot,
    max_fixed_point_floor,
    max_fixed_point_floor_q,
    perfect_square_root,
    rational_square_root,
)
from .maps import PowerMap, QuadMap

__all__ = [
    "Cycle",
    "OrbitClassification",
    "BoundsProfile",
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
    "power_bounds",
    "translation_bounds",
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


def solve_pronic(n: int) -> tuple[int, str] | None:
    """Recognize n = j*(j+1) or n = j*(j+1) + 1 with j >= 0.

    Returns (j, "pronic") or (j, "pronic_plus_one"); None otherwise.  The two
    families are disjoint, and j >= 0 covers all integer solutions because
    j and -(j+1) give the same product.
    """
    if n < 0:
        return None
    j = (math.isqrt(4 * n + 1) - 1) // 2
    for cand in (j - 1, j, j + 1):
        if cand < 0:
            continue
        p = cand * (cand + 1)
        if p == n:
            return cand, "pronic"
        if p + 1 == n:
            return cand, "pronic_plus_one"
    return None


# ====================================================================
# power maps
# ====================================================================


def _monotone_solve(g, lo: int, hi: int, target: int) -> int | None:
    """j in [lo, hi] with g(j) == target, for strictly increasing g."""
    while lo <= hi:
        mid = (lo + hi) // 2
        v = g(mid)
        if v == target:
            return mid
        if v < target:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def power_fixed_points(power: PowerMap) -> list[int]:
    """All integers j with j**m - j == shift, by search on monotone branches.

    Degree 1 returns [] always: x - k == x has no solution for k != 0, and
    for k == 0 every integer is fixed (callers tag that case ALL_FIXED
    rather than enumerate it).
    """
    m, k = power.degree, power.shift
    if m == 1:
        return []
    found = {j for j in (-1, 0, 1) if j**m - j == k}
    hi = iroot(max(abs(k), 1), m) + 2
    cand = _monotone_solve(lambda j: j**m - j, 2, hi, k)
    if cand is not None:
        found.add(cand)
    if m % 2 == 0:
        cand = _monotone_solve(lambda t: t**m + t, 2, hi, k)
    else:
        cand = _monotone_solve(lambda t: t**m - t, 2, hi, -k)
    if cand is not None:
        found.add(-cand)
    return sorted(found)


def _verified_fixed(the_map, candidates) -> tuple[int, ...]:
    return tuple(sorted({int(p) for p in candidates if the_map(int(p)) == int(p)}))


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
        hit = solve_pronic(k)
        if hit is None:
            return OrbitClassification((), (), (), DIVERGES_UP)
        j, kind = hit
        if kind == "pronic":
            fixed = _verified_fixed(power, (j + 1, -j))
            return OrbitClassification(fixed, (), (), DIVERGES_UP, j, kind)
        cyc = _verified_two_cycle(power, j, -(j + 1))
        return OrbitClassification((), cyc, (), DIVERGES_UP, j, kind)
    fixed = tuple(power_fixed_points(power))
    behavior = DIVERGES_SPLIT if m % 2 else DIVERGES_UP
    if m % 2 == 0 and k == 1:
        cyc = _verified_two_cycle(power, -1, 0)
        return OrbitClassification(fixed, cyc, (), behavior, 0, "even_degree_shift_one")
    return OrbitClassification(fixed, (), (), behavior)


# ====================================================================
# integer quadratics
# ====================================================================


def _integral(cands) -> list[int]:
    return [int(c) for c in cands if Fraction(c).denominator == 1]


def classify_quad(quad: QuadMap) -> OrbitClassification:
    """Exact periodic-orbit answer for a*x**2 + b*x + c.

    Candidates come from the normal-form conditions; only integral
    candidates that survive substitution are reported.  A rational fixed
    point of the quadratic needs 1 + 4q to be a rational square, which for
    even b forces q pronic and for odd b forces ((b-1)/2)**2 - a*c to be a
    perfect square; 2-cycles live at the successor parameter in each family.
    Divergent seeds follow the sign of the leading coefficient.
    """
    a, b, c = quad.a, quad.b, quad.c
    behavior = DIVERGES_UP if a > 0 else DIVERGES_DOWN
    if b % 2 == 0:
        half = b // 2
        q = half * (half - 1) - a * c  # == b*(b-2)/4 - a*c, exactly
        hit = solve_pronic(q)
        if hit is None:
            return OrbitClassification((), (), (), behavior)
        j, kind = hit
        if kind == "pronic":
            cands = (
                Fraction(j, a) - Fraction(b - 2, 2 * a),
                Fraction(-j, a) - Fraction(b, 2 * a),
            )
            return OrbitClassification(
                _verified_fixed(quad, _integral(cands)), (), (), behavior, j, kind
            )
        lead, follow = (
            Fraction(j, a) - Fraction(b, 2 * a),
            Fraction(-j, a) - Fraction(b + 2, 2 * a),
        )
        cyc = ()
        if lead.denominator == 1 and follow.denominator == 1:
            cyc = _verified_two_cycle(quad, int(lead), int(follow))
        return OrbitClassification((), cyc, (), behavior, j, kind)
    half = (b - 1) // 2
    n = half * half - a * c  # == ((b-1)/2)**2 - a*c
    j = perfect_square_root(n)
    if j is not None:
        cands = (
            Fraction(j, a) - Fraction(b - 1, 2 * a),
            Fraction(-j, a) - Fraction(b - 1, 2 * a),
        )
        return OrbitClassification(
            _verified_fixed(quad, _integral(cands)), (), (), behavior, j, "square"
        )
    j = perfect_square_root(n - 1)
    if j is not None:
        # j >= 1 here: n - 1 == 0 would mean n == 1, caught above as a square
        lead, follow = (
            Fraction(-j, a) - Fraction(b + 1, 2 * a),
            Fraction(j, a) - Fraction(b + 1, 2 * a),
        )
        cyc = ()
        if lead.denominator == 1 and follow.denominator == 1:
            cyc = _verified_two_cycle(quad, int(lead), int(follow))
        return OrbitClassification((), cyc, (), behavior, j, "square_plus_one")
    return OrbitClassification((), (), (), behavior)


# ====================================================================
# the band [floor, fix] and its integer content
# ====================================================================


def _band_range(top: int, side_of) -> range:
    """Integers n in [0, top] at or above the band floor, by binary search on
    the monotone side_of(n); top is the floor of the max fixed point.
    """
    if side_of(top) is Side.BELOW:
        return range(0)
    lo, hi = 0, top  # least n >= floor; invariant: hi is at or above the floor
    while lo < hi:
        mid = (lo + hi) // 2
        if side_of(mid) is Side.BELOW:
            lo = mid + 1
        else:
            hi = mid
    return range(lo, top + 1)


def band_integers(m: int, k: int) -> list[int]:
    """All integers n >= 0 with band floor <= n <= max fixed point.

    Decided purely by the exact side predicates.  The answer is a contiguous
    range, so both endpoints are found by binary search on the (monotone)
    predicates.  Requires even degree and k >= 2.
    """
    if m < 2 or m % 2:
        raise ValueError("the band is defined for even degree")
    if k < 2:
        raise ValueError("band floor is real only for k >= 2")
    top = max_fixed_point_floor(m, k)
    return list(_band_range(top, lambda n: compare_to_band_floor(n, m, k)))


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
            compare_to_max_fixed_point(2, 2, k) is not Side.ABOVE
            and compare_to_band_floor(top, 2, k) is not Side.BELOW
            and compare_to_band_floor(max(top - 2, 0), 2, k) is not Side.ABOVE
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


# ====================================================================
# bounds profiles (report/plot support)
# ====================================================================


@dataclass(frozen=True)
class BoundsProfile:
    """Landmark summary for one parameter of a family.

    fixed_pair is the exact (smaller, larger) fixed-point pair when both are
    rational; cycle_pair is the exact rational 2-cycle when one exists.
    Approximations are certified decimals; band data is None/() when the
    band floor is not real.
    """

    family: str
    params: tuple
    top_floor: int
    in_band: tuple[int, ...]
    top_approx: DecimalApprox
    band_floor_approx: DecimalApprox | None
    fixed_pair: tuple[Fraction, Fraction] | None
    cycle_pair: tuple[Fraction, Fraction] | None


def power_bounds(m: int, k: int, digits: int = 6) -> BoundsProfile:
    """Landmark profile for x -> x**m - k, even degree, k >= 0."""
    if m < 2 or m % 2:
        raise ValueError("bounds profiles cover even degree")
    if k < 0:
        raise ValueError("no real fixed points for negative shift")
    if k == 0:
        # fix == 1 exactly; the band floor is not real below k = 2
        return BoundsProfile(
            "power",
            (m, k),
            1,
            (),
            DecimalApprox("1." + "0" * digits, digits, Fraction(0)),
            None,
            (Fraction(0), Fraction(1)),
            None,
        )
    top_floor = max_fixed_point_floor(m, k)
    in_band = tuple(band_integers(m, k)) if k >= 2 else ()
    top_approx = approx_max_fixed_point(m, k, digits)
    floor_approx = approx_band_floor(m, k, digits) if k >= 2 else None
    fixed = power_fixed_points(PowerMap(m, k))
    fixed_pair = None
    if len(fixed) == 2:
        fixed_pair = (Fraction(fixed[0]), Fraction(fixed[1]))
    cycle_pair = None
    if m == 2:
        hit = solve_pronic(k)
        if hit is not None and hit[1] == "pronic_plus_one":
            j = hit[0]
            cycle_pair = (Fraction(-(j + 1)), Fraction(j))
    elif k == 1:
        cycle_pair = (Fraction(-1), Fraction(0))
    return BoundsProfile(
        "power", (m, k), top_floor, in_band, top_approx, floor_approx,
        fixed_pair, cycle_pair,
    )


def translation_bounds(q: Fraction, digits: int = 6) -> BoundsProfile:
    """Landmark profile for the rational family x -> x**2 - q."""
    q = Fraction(q)
    top_floor = max_fixed_point_floor_q(q)
    has_floor = band_floor_is_real_q(q)
    in_band: tuple[int, ...] = ()
    if has_floor:
        in_band = tuple(_band_range(top_floor, lambda n: compare_to_band_floor_q(n, q)))
    fixed_pair = None
    root = rational_square_root(1 + 4 * q)
    if root is not None:
        fixed_pair = ((1 - root) / 2, (1 + root) / 2)
    cycle_pair = None
    root = rational_square_root(4 * q - 3)
    if root is not None and root > 0:  # root 0 degenerates to a fixed point
        cycle_pair = ((-1 - root) / 2, (-1 + root) / 2)
    return BoundsProfile(
        "translation",
        (q,),
        top_floor,
        in_band,
        approx_max_fixed_point_q(q, digits),
        approx_band_floor_q(q, digits) if has_floor else None,
        fixed_pair,
        cycle_pair,
    )
