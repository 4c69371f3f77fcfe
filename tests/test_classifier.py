"""Classifier: complete periodic-orbit answers and band arithmetic."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.classify import (
    ALL_FIXED,
    DIVERGES_DOWN,
    DIVERGES_SPLIT,
    DIVERGES_UP,
    Cycle,
    band_gap_checks,
    band_integers,
    band_width_decimal,
    band_width_exceeds_one,
    classify_power,
    classify_quad,
    power_fixed_points,
    solve_pronic,
)
from orbitforge.kernel import Side, frac_side_of_band_floor, max_fixed_point_floor
from orbitforge.maps import PowerMap, QuadMap, conjugacy_of_quad

nonzero_ints = st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0)


# ====================================================================
# cycles
# ====================================================================


def test_cycle_canonical_form():
    c = Cycle.from_points([2, -3])
    assert (c.period, c.points) == (2, (-3, 2))
    assert Cycle.from_points([5]) == Cycle(1, (5,))


@given(points=st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
def test_cycle_rotation_invariance(points):
    forms = {
        Cycle.from_points(points[i:] + points[:i]) for i in range(len(points))
    }
    assert len(forms) == 1


def test_cycle_validation():
    with pytest.raises(ValueError):
        Cycle(2, (1, 1))
    with pytest.raises(ValueError):
        Cycle(1, (1, 2))
    with pytest.raises(ValueError):
        Cycle(2, (2, 1))  # must start at the smallest point


# ====================================================================
# pronic recognition
# ====================================================================


def test_solve_pronic_examples():
    assert solve_pronic(0) == (0, "pronic")
    assert solve_pronic(1) == (0, "pronic_plus_one")
    assert solve_pronic(2) == (1, "pronic")
    assert solve_pronic(6) == (2, "pronic")
    assert solve_pronic(7) == (2, "pronic_plus_one")
    assert solve_pronic(5) is None
    assert solve_pronic(-3) is None


@given(n=st.integers(min_value=-10, max_value=10**6))
def test_solve_pronic_against_brute_force(n):
    expected = None
    j = 0
    while j * (j + 1) <= n:
        if j * (j + 1) == n:
            expected = (j, "pronic")
            break
        if j * (j + 1) + 1 == n:
            expected = (j, "pronic_plus_one")
            break
        j += 1
    assert solve_pronic(n) == expected


@given(j=st.integers(min_value=0, max_value=10**9))
def test_solve_pronic_round_trip(j):
    assert solve_pronic(j * (j + 1)) == (j, "pronic")
    assert solve_pronic(j * (j + 1) + 1) == (j, "pronic_plus_one")


# ====================================================================
# power-map classification
# ====================================================================


def test_classify_power_degree_two_examples():
    got = classify_power(PowerMap(2, 6))
    assert got.fixed_points == (-2, 3)
    assert got.two_cycles == ()
    assert (got.witness, got.condition) == (2, "pronic")

    got = classify_power(PowerMap(2, 7))
    assert got.fixed_points == ()
    assert got.two_cycles == (Cycle(2, (-3, 2)),)
    assert (got.witness, got.condition) == (2, "pronic_plus_one")

    got = classify_power(PowerMap(2, 5))
    assert got.fixed_points == () and got.two_cycles == ()
    assert got.behavior == DIVERGES_UP

    # shift 1 = 0*1 + 1: the degenerate pair {0, -1}
    got = classify_power(PowerMap(2, 1))
    assert got.two_cycles == (Cycle(2, (-1, 0)),)
    assert (got.witness, got.condition) == (0, "pronic_plus_one")

    assert classify_power(PowerMap(2, 0)).fixed_points == (0, 1)
    assert classify_power(PowerMap(2, 2)).fixed_points == (-1, 2)
    assert classify_power(PowerMap(2, -3)).fixed_points == ()


def test_classify_power_degree_one():
    assert classify_power(PowerMap(1, 0)).behavior == ALL_FIXED
    assert classify_power(PowerMap(1, 5)).behavior == DIVERGES_DOWN
    assert classify_power(PowerMap(1, -5)).behavior == DIVERGES_UP


def test_classify_power_higher_degree_examples():
    got = classify_power(PowerMap(3, 6))
    assert got.fixed_points == (2,)  # 2**3 - 2 == 6
    assert got.behavior == DIVERGES_SPLIT
    assert got.two_cycles == ()

    got = classify_power(PowerMap(4, 1))
    assert got.fixed_points == ()
    assert got.two_cycles == (Cycle(2, (-1, 0)),)
    assert got.condition == "even_degree_shift_one"
    assert got.behavior == DIVERGES_UP

    got = classify_power(PowerMap(6, 1))
    assert got.two_cycles == (Cycle(2, (-1, 0)),)

    # 2**5 - 2 == 30; -2 is fixed for odd degree at the negated shift
    assert classify_power(PowerMap(5, 30)).fixed_points == (2,)
    assert classify_power(PowerMap(5, -30)).fixed_points == (-2,)
    assert classify_power(PowerMap(3, 0)).fixed_points == (-1, 0, 1)


@given(
    m=st.integers(min_value=2, max_value=9),
    k=st.integers(min_value=-(10**6), max_value=10**6),
)
def test_power_fixed_points_against_brute_force(m, k):
    got = power_fixed_points(PowerMap(m, k))
    lim = 0
    while (lim + 1) ** m - (lim + 1) <= abs(k):
        lim += 1
    window = range(-lim - 2, lim + 3)
    assert got == [j for j in window if j**m - j == k]


@given(
    m=st.integers(min_value=2, max_value=8),
    k=st.integers(min_value=-(10**4), max_value=10**4),
)
def test_classified_points_satisfy_the_map(m, k):
    the_map = PowerMap(m, k)
    got = classify_power(the_map)
    for p in got.fixed_points:
        assert the_map(p) == p
    for cyc in got.two_cycles:
        p, s = cyc.points
        assert the_map(p) == s and the_map(s) == p and p != s
    assert got.higher_cycles == ()


@given(k=st.integers(min_value=-(10**9), max_value=10**9))
def test_degree_two_trichotomy(k):
    got = classify_power(PowerMap(2, k))
    # at most one of the two consecutive-parameter families applies
    assert not (got.fixed_points and got.two_cycles)
    if k == 1:
        assert (got.witness, got.condition) == (0, "pronic_plus_one")


@given(k=st.integers(min_value=-(10**6), max_value=10**6))
def test_scale_coherence_with_monic_pure_quadratic(k):
    assert classify_power(PowerMap(2, k)) == classify_quad(QuadMap(1, 0, -k))


# ====================================================================
# quadratic classification
# ====================================================================


def test_classify_quad_worked_examples():
    got = classify_quad(QuadMap(1, 1, -2))
    assert got.two_cycles == (Cycle(2, (-2, 0)),)
    assert got.fixed_points == ()
    got = classify_quad(QuadMap(1, 1, -5))
    assert got.two_cycles == (Cycle(2, (-3, 1)),)

    assert classify_quad(QuadMap(1, 0, -6)).fixed_points == (-2, 3)
    assert classify_quad(QuadMap(2, 3, -5)).fixed_points == ()
    assert classify_quad(QuadMap(2, 3, -5)).two_cycles == ()

    got = classify_quad(QuadMap(1, 2, -7))
    assert got.two_cycles == (Cycle(2, (-4, 1)),)

    got = classify_quad(QuadMap(-1, 0, 1))
    assert got.two_cycles == (Cycle(2, (0, 1)),)
    assert got.behavior == DIVERGES_DOWN

    # non-integral candidates must be filtered, not reported
    got = classify_quad(QuadMap(-2, 2, 1))
    assert got.fixed_points == (1,)

    # D - 4 = 0: the degenerate 2-cycle is the fixed point -1
    got = classify_quad(QuadMap(1, 1, -1))
    assert got.fixed_points == (-1, 1)
    assert got.two_cycles == ()


def test_classify_quad_parametrized_families():
    for j in range(0, 8):
        got = classify_quad(QuadMap(1, 2, -j * (j + 1)))
        assert got.fixed_points == tuple(sorted((j, -j - 1)))
        got = classify_quad(QuadMap(1, 2, -j * (j + 1) - 1))
        assert got.two_cycles == (Cycle.from_points([j - 1, -j - 2]),)


@given(a=nonzero_ints, b=st.integers(-30, 30), c=st.integers(-30, 30))
def test_quad_reported_points_satisfy_the_map(a, b, c):
    quad = QuadMap(a, b, c)
    got = classify_quad(quad)
    for p in got.fixed_points:
        assert quad(p) == p
    for cyc in got.two_cycles:
        p, s = cyc.points
        assert quad(p) == s and quad(s) == p and p != s
    assert got.higher_cycles == ()
    assert got.behavior == (DIVERGES_UP if a > 0 else DIVERGES_DOWN)


@given(a=nonzero_ints, b=st.integers(-30, 30), c=st.integers(-30, 30))
def test_quad_cycles_push_to_normal_form_cycles(a, b, c):
    quad = QuadMap(a, b, c)
    con = conjugacy_of_quad(quad)
    got = classify_quad(quad)
    for p in got.fixed_points:
        r = con.push(p)
        assert con.normal_step(r) == r
    for cyc in got.two_cycles:
        p, s = (con.push(x) for x in cyc.points)
        assert con.normal_step(p) == s and con.normal_step(s) == p


@settings(max_examples=300)
@given(
    a=st.integers(-10**3, 10**3).filter(lambda n: n != 0),
    b=st.integers(-10**9, 10**9),
    p=st.integers(-10**9, 10**9),
    s=st.integers(-10**9, 10**9),
    cycle=st.booleans(),
)
def test_classify_quad_finds_planted_cycles(a, b, p, s, cycle):
    # plant the fixed point p, or the 2-cycle p -> s -> p (a fixed point when
    # p == s), far outside the grids the oracle can check
    if cycle:
        b = -1 - a * (p + s)
        c = s - a * p * p - b * p
    else:
        c = p - a * p * p - b * p
    got = classify_quad(QuadMap(a, b, c))
    two_cycle = cycle and p != s
    if two_cycle:
        assert got.two_cycles == (Cycle.from_points([p, s]),)
    else:
        assert p in got.fixed_points
    # the witness satisfies the identity its condition names
    j, plus = got.witness, got.condition.endswith("_plus_one")
    assert j >= 0 and plus == two_cycle
    if b % 2 == 0:
        assert got.condition in ("pronic", "pronic_plus_one")
        assert b * (b - 2) // 4 - a * c == j * (j + 1) + plus
    else:
        assert got.condition in ("square", "square_plus_one")
        assert ((b - 1) // 2) ** 2 - a * c == j * j + plus


# SHA-256 of the reprs of every classification in the two grids below,
# recorded before the quadratic classifier moved onto one discriminant rule;
# it pins witness and condition, which the oracle cross-check never compares
CLASSIFICATION_SHA256 = "a5ce269539b62652dcd2737cb6b29002a0d1d397ab0a3f7e58295508d6b9bac9"


def test_classification_golden_digest():
    digest = hashlib.sha256()
    for a in range(-6, 7):
        if a == 0:
            continue
        for b in range(-12, 13):
            for c in range(-150, 151):
                digest.update(repr(classify_quad(QuadMap(a, b, c))).encode())
    for m in range(1, 9):
        for k in range(-300, 3001):
            digest.update(repr(classify_power(PowerMap(m, k))).encode())
    assert digest.hexdigest() == CLASSIFICATION_SHA256


# ====================================================================
# the band and its integer content
# ====================================================================


def test_band_integers_examples():
    assert band_integers(2, 2) == [0, 1, 2]
    assert band_integers(2, 6) == [2, 3]
    assert band_integers(2, 7) == [2, 3]
    assert band_integers(2, 5) == [2]
    assert band_integers(2, 4) == [2]
    assert band_integers(4, 14) == [2]
    with pytest.raises(ValueError):
        band_integers(3, 5)
    with pytest.raises(ValueError):
        band_integers(2, 1)


@given(m=st.sampled_from(range(2, 13, 2)), k=st.integers(min_value=2, max_value=10**5))
def test_band_integers_matches_predicate_scan(m, k):
    top = max_fixed_point_floor(m, k)
    by_scan = [
        n for n in range(0, top + 1) if frac_side_of_band_floor(n, m, k) is not Side.BELOW
    ]
    assert band_integers(m, k) == by_scan


def test_band_gap_checks_small_range():
    rep = band_gap_checks(500)
    assert rep.ok and rep.first_violation is None and rep.checked == 499
    with pytest.raises(ValueError):
        band_gap_checks(1)


def test_band_width_decimal_example():
    width, err = band_width_decimal(6, 6)
    assert width == Fraction(3000000 - 1732050, 10**6)
    # the fixed point is exactly 3 (error 0), the floor contributes 1e-6
    assert err == Fraction(1, 10**6)


def test_band_width_exceeds_one_samples():
    for k in (2, 3, 7, 100, 10**4):
        assert band_width_exceeds_one(k)
    with pytest.raises(ValueError):
        band_width_exceeds_one(1)
