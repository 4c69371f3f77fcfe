"""Exact-arithmetic primitives: integer roots, side predicates, decimals."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitforge.kernel import (
    DecimalApprox,
    Side,
    approx_band_floor,
    approx_band_floor_q,
    approx_max_fixed_point,
    approx_max_fixed_point_q,
    band_floor_is_real_q,
    compare_to_band_floor_q,
    compare_to_max_fixed_point_q,
    format_decimal,
    frac_side_of_band_floor,
    frac_side_of_max_fixed_point,
    iroot,
    max_fixed_point_floor,
    max_fixed_point_floor_q,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)


# ====================================================================
# integer roots
# ====================================================================


def test_iroot_values():
    assert iroot(0, 3) == 0
    assert iroot(1, 7) == 1
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(10**30, 5) == 10**6
    assert iroot(5, 1) == 5
    with pytest.raises(ValueError):
        iroot(-1, 3)
    with pytest.raises(ValueError):
        iroot(8, 0)


@given(n=st.integers(min_value=0, max_value=10**40), m=st.integers(min_value=1, max_value=12))
def test_iroot_brackets_the_root(n, m):
    r = iroot(n, m)
    assert r**m <= n < (r + 1) ** m


# ====================================================================
# integer-family side predicates
# ====================================================================


def test_compare_to_max_fixed_point_examples():
    # degree 2, shift 3: the fixed point is (1 + sqrt(13)) / 2 ~ 2.3028
    assert frac_side_of_max_fixed_point(2, 2, 3) is Side.BELOW
    assert frac_side_of_max_fixed_point(3, 2, 3) is Side.ABOVE
    # shift 6 puts it exactly at 3
    assert frac_side_of_max_fixed_point(3, 2, 6) is Side.EQUAL
    assert max_fixed_point_floor(2, 6) == 3
    assert frac_side_of_max_fixed_point(1, 4, 1) is Side.BELOW


def test_compare_domain_errors():
    # the fixed point lies above 1, so every point below 1 is answered BELOW
    for x in (0, -5, Fraction(1, 3)):
        assert frac_side_of_max_fixed_point(x, 2, 3) is Side.BELOW
    with pytest.raises(ValueError):
        frac_side_of_max_fixed_point(2, 1, 3)
    with pytest.raises(ValueError):
        frac_side_of_max_fixed_point(2, 2, 0)
    with pytest.raises(ValueError):
        frac_side_of_band_floor(-1, 2, 5)
    with pytest.raises(ValueError):
        frac_side_of_band_floor(1, 2, 1)


@given(
    m=st.integers(min_value=2, max_value=11),
    k=st.integers(min_value=1, max_value=10**40),
    d=st.sampled_from([1, 2, 3, 4, 7, 12]),
    n=st.integers(min_value=0, max_value=10**12),
)
@example(m=2, k=1, d=4, n=0)  # q = -1/4: the fixed point is exactly 1/2
@example(m=11, k=10**40, d=1, n=0)  # q = 0: the fixed point is exactly 1
def test_floor_is_tight(m, k, d, n):
    t = max_fixed_point_floor(m, k)
    assert t >= 1
    assert frac_side_of_max_fixed_point(t, m, k) is not Side.ABOVE
    assert frac_side_of_max_fixed_point(t + 1, m, k) is Side.ABOVE
    # the q-family: q >= -1/4, so 1 + 4q >= 0
    q = Fraction(n - d // 4, d)
    t = max_fixed_point_floor_q(q)
    assert compare_to_max_fixed_point_q(t, q) is not Side.ABOVE
    assert compare_to_max_fixed_point_q(t + 1, q) is Side.ABOVE
    if q < 0:
        assert t == 0  # the fixed point lies in [1/2, 1)
    elif q == 0:
        assert t == 1


@given(m=st.sampled_from([2, 4, 6]), k=st.integers(min_value=2, max_value=10**6))
def test_band_floor_sides_are_monotone(m, k):
    top = max_fixed_point_floor(m, k)
    sides = [frac_side_of_band_floor(x, m, k).value for x in range(0, top + 2)]
    assert sides == sorted(sides)
    assert sides[-1] == Side.ABOVE.value  # top + 1 exceeds the fixed point too


def test_band_floor_examples():
    # degree 2, shift 7: floor = sqrt(7 - fix) ~ 1.95
    assert frac_side_of_band_floor(1, 2, 7) is Side.BELOW
    assert frac_side_of_band_floor(2, 2, 7) is Side.ABOVE
    # shift 2: floor is exactly 0
    assert frac_side_of_band_floor(0, 2, 2) is Side.EQUAL


# ====================================================================
# rational-family side predicates
# ====================================================================


@given(fix=rationals.filter(lambda f: 2 * f >= 1))
def test_q_predicate_recognizes_its_fixed_point(fix):
    q = fix * fix - fix
    assert compare_to_max_fixed_point_q(fix, q) is Side.EQUAL
    assert compare_to_max_fixed_point_q(fix + 1, q) is Side.ABOVE
    assert compare_to_max_fixed_point_q(fix - Fraction(1, 7), q) is Side.BELOW


def test_q_no_real_fixed_points():
    with pytest.raises(ValueError):
        compare_to_max_fixed_point_q(Fraction(1), Fraction(-1))
    with pytest.raises(ValueError):
        band_floor_is_real_q(Fraction(-1, 2))


def test_band_floor_is_real_q_threshold():
    assert band_floor_is_real_q(Fraction(2)) is True  # floor exactly 0
    assert band_floor_is_real_q(Fraction(3)) is True
    assert band_floor_is_real_q(Fraction(7, 4)) is False
    assert band_floor_is_real_q(Fraction(19, 4)) is True


@given(q=st.integers(min_value=2, max_value=10**9))
def test_q_floor_matches_integer_family(q):
    # x**2 - q with integer q >= 2 is the integer family in disguise
    assert max_fixed_point_floor_q(Fraction(q)) == max_fixed_point_floor(2, q)


def test_compare_to_band_floor_q_examples():
    q = Fraction(19, 4)
    assert compare_to_band_floor_q(1, q) is Side.BELOW
    assert compare_to_band_floor_q(2, q) is Side.ABOVE
    with pytest.raises(ValueError):
        compare_to_band_floor_q(1, Fraction(7, 4))


# ====================================================================
# certified decimals
# ====================================================================


def test_format_decimal():
    assert format_decimal(12345, 3) == "12.345"
    assert format_decimal(-1, 6) == "-0.000001"
    assert format_decimal(0, 2) == "0.00"
    assert format_decimal(30, 1) == "3.0"
    with pytest.raises(ValueError):
        format_decimal(1, 0)


def test_approx_examples():
    a = approx_max_fixed_point(2, 3, 6)
    assert (a.value, a.error_bound) == ("2.302775", Fraction(1, 10**6))
    exact = approx_max_fixed_point(2, 6, 6)
    assert (exact.value, exact.error_bound) == ("3.000000", Fraction(0))
    floor = approx_band_floor(2, 7, 6)
    assert (floor.value, floor.error_bound) == ("1.951260", Fraction(1, 10**6))
    zero = approx_band_floor(2, 2, 6)
    assert zero.value == "0.000000"
    q = approx_max_fixed_point_q(Fraction(7, 4), 6)
    assert q.value == "1.914213"


def test_approx_domain_errors():
    with pytest.raises(ValueError):
        approx_max_fixed_point(2, 3, 0)
    with pytest.raises(ValueError):
        approx_band_floor(2, 1, 6)
    with pytest.raises(ValueError):
        approx_band_floor_q(Fraction(7, 4), 6)


def test_decimal_approx_as_fraction():
    d = DecimalApprox("2.302775", 6, Fraction(1, 10**6))
    assert d.as_fraction() == Fraction(2302775, 10**6)


@settings(max_examples=60)
@given(
    m=st.sampled_from([2, 4, 6]),
    k=st.integers(min_value=1, max_value=10**6),
    digits=st.integers(min_value=1, max_value=10),
)
def test_approx_max_fixed_point_brackets(m, k, digits):
    a = approx_max_fixed_point(m, k, digits)
    v = a.as_fraction()
    if a.error_bound == 0:
        assert frac_side_of_max_fixed_point(v, m, k) is Side.EQUAL
    else:
        assert a.error_bound == Fraction(1, 10**digits)
        assert frac_side_of_max_fixed_point(v, m, k) is not Side.ABOVE
        assert frac_side_of_max_fixed_point(v + a.error_bound, m, k) is not Side.BELOW


@settings(max_examples=60)
@given(
    m=st.sampled_from([2, 4, 6]),
    k=st.integers(min_value=2, max_value=10**6),
    digits=st.integers(min_value=1, max_value=10),
)
def test_approx_band_floor_brackets(m, k, digits):
    a = approx_band_floor(m, k, digits)
    v = a.as_fraction()
    if a.error_bound == 0:
        assert frac_side_of_band_floor(v, m, k) is Side.EQUAL
    else:
        assert frac_side_of_band_floor(v, m, k) is not Side.ABOVE
        assert frac_side_of_band_floor(v + a.error_bound, m, k) is not Side.BELOW


@settings(max_examples=40)
@given(
    q=st.fractions(
        min_value=Fraction(2), max_value=Fraction(10**6), max_denominator=64
    ),
    digits=st.integers(min_value=1, max_value=9),
)
def test_approx_q_brackets(q, digits):
    a = approx_max_fixed_point_q(q, digits)
    v = a.as_fraction()
    if a.error_bound == 0:
        assert compare_to_max_fixed_point_q(v, q) is Side.EQUAL
    else:
        assert compare_to_max_fixed_point_q(v, q) is not Side.ABOVE
        assert compare_to_max_fixed_point_q(v + a.error_bound, q) is not Side.BELOW
    b = approx_band_floor_q(q, digits)  # q >= 2 keeps the floor real
    w = b.as_fraction()
    if b.error_bound == 0:
        assert compare_to_band_floor_q(w, q) is Side.EQUAL
    else:
        assert compare_to_band_floor_q(w, q) is not Side.ABOVE
        assert compare_to_band_floor_q(w + b.error_bound, q) is not Side.BELOW


# The properties above check each bisection with the predicates it calls.
# These check the same certified decimals against the landmarks' defining
# polynomials, evaluated here in Fraction arithmetic.


def _root_side(t, m, q):
    """-1, 0 or 1 as t is below, at or above the larger root of x**m - x - q.

    Valid when that root is at least 1/2 (k >= 1, or 1 + 4q >= 0 for m = 2):
    from 1/2 up, the polynomial is negative before the root, positive after.
    """
    if 2 * t < 1:
        return -1
    g = t**m - t - q
    return (g > 0) - (g < 0)


def _assert_brackets(approx, side, digits):
    """approx pins the landmark whose side of a point is side(point)."""
    lo = Fraction(approx.value)
    assert approx.digits == digits and len(approx.value.split(".")[1]) == digits
    if approx.error_bound == 0:
        assert side(lo) == 0
    else:
        assert approx.error_bound == Fraction(1, 10**digits)
        assert side(lo) <= 0 and side(lo + approx.error_bound) == 1


def _fix_side(m, q):
    return lambda x: _root_side(x, m, q)


def _floor_side(m, q):
    # x >= (q - fix)**(1/m)  iff  fix >= q - x**m
    return lambda x: -_root_side(q - x**m, m, q)


@pytest.mark.parametrize("digits", [3, 12])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("k", [2, 3, 6, 7, 14, 250, 10**6 + 3])
def test_power_decimals_bracket_the_polynomial_roots(k, m, digits):
    _assert_brackets(approx_max_fixed_point(m, k, digits), _fix_side(m, k), digits)
    _assert_brackets(approx_band_floor(m, k, digits), _floor_side(m, k), digits)


@pytest.mark.parametrize("digits", [3, 12])
@pytest.mark.parametrize(
    "q",
    [Fraction(k) - Fraction(1, 4) for k in (1, 3, 42, 10**6)]
    + [Fraction(7, 4), Fraction(19, 4), Fraction(2, 3)],
)
def test_q_decimals_bracket_the_polynomial_roots(q, digits):
    _assert_brackets(approx_max_fixed_point_q(q, digits), _fix_side(2, q), digits)
    if q >= 2:  # the band floor is real exactly from q = 2 on
        _assert_brackets(approx_band_floor_q(q, digits), _floor_side(2, q), digits)
