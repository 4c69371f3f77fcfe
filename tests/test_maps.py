"""Map families, conjugacies, lattice certificates, rational parsing."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.maps import (
    Conjugacy,
    PowerMap,
    QuadMap,
    RationalPoly,
    conjugacy_of_quad,
    lattice_check,
    parse_rational,
)

small_rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=20
)
nonzero_ints = st.integers(min_value=-20, max_value=20).filter(lambda n: n != 0)


def test_power_map_values():
    f = PowerMap(2, 3)
    assert f(2) == 1
    assert f(-3) == 6
    assert PowerMap(1, -4)(10) == 14
    assert PowerMap(5, 0)(2) == 32
    with pytest.raises(ValueError):
        PowerMap(0, 1)


def test_quad_map_values():
    f = QuadMap(2, 3, -5)
    assert f(1) == 0
    assert f(-2) == -3
    assert QuadMap(-1, 0, 1)(3) == -8
    with pytest.raises(ValueError):
        QuadMap(0, 1, 2)


def test_maps_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        PowerMap(2, 3).shift = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        QuadMap(1, 2, 3).a = 2


def test_rational_poly_basics():
    p = RationalPoly([2, 1, Fraction(1, 2)])
    assert p.degree == 2
    assert p(2) == 6
    assert p(Fraction(1, 2)) == Fraction(21, 8)
    with pytest.raises(ValueError):
        RationalPoly([])
    with pytest.raises(ValueError):
        RationalPoly([1, 2, 0])


@given(
    coeffs=st.lists(small_rationals, min_size=1, max_size=6).filter(
        lambda cs: cs[-1] != 0
    ),
    x=small_rationals,
)
def test_rational_poly_matches_power_sum(coeffs, x):
    p = RationalPoly(coeffs)
    assert p(x) == sum(c * x**i for i, c in enumerate(coeffs))


# ====================================================================
# conjugacy to the normal form x -> x**2 - q
# ====================================================================


def test_conjugacy_of_quad_example():
    con = conjugacy_of_quad(QuadMap(1, 1, -2))
    assert (con.scale, con.offset, con.q) == (1, Fraction(1, 2), Fraction(7, 4))


@given(a=nonzero_ints, b=st.integers(-30, 30), c=st.integers(-30, 30))
def test_four_q_is_integral(a, b, c):
    con = conjugacy_of_quad(QuadMap(a, b, c))
    assert (4 * con.q).denominator == 1
    if b % 2 == 0:
        assert con.q.denominator == 1


@given(
    a=nonzero_ints,
    b=st.integers(-30, 30),
    c=st.integers(-30, 30),
    s=small_rationals,
)
def test_push_pull_are_inverse(a, b, c, s):
    con = conjugacy_of_quad(QuadMap(a, b, c))
    assert con.pull(con.push(s)) == s
    assert con.push(con.pull(s)) == s


@given(
    a=nonzero_ints,
    b=st.integers(-30, 30),
    c=st.integers(-30, 30),
    s=small_rationals,
)
def test_conjugacy_commutes_with_the_map(a, b, c, s):
    quad = QuadMap(a, b, c)
    con = conjugacy_of_quad(quad)
    assert con.push(quad(s)) == con.normal_step(con.push(s))


def test_normal_step():
    con = Conjugacy(Fraction(1), Fraction(0), Fraction(2))
    assert con.normal_step(3) == 7
    assert con.normal_step(Fraction(1, 2)) == Fraction(-7, 4)


# ====================================================================
# lattice certificates
# ====================================================================


def test_lattice_check_examples():
    cert = lattice_check(RationalPoly([2, 1, Fraction(1, 2)]))
    assert (cert.step, cert.holds) == (2, True)
    cert = lattice_check(RationalPoly([1, 1, Fraction(1, 2)]))
    assert (cert.step, cert.holds) == (2, False)
    cert = lattice_check(RationalPoly([-2, 0, 1]))
    assert (cert.step, cert.holds) == (1, True)
    with pytest.raises(ValueError):
        lattice_check(RationalPoly([1, 2]))


def test_lattice_check_rejects_fractional_linear_term():
    cert = lattice_check(RationalPoly([2, Fraction(1, 3), Fraction(1, 2)]))
    assert not cert.holds
    assert "linear" in cert.reason


@settings(max_examples=80)
@given(
    coeffs=st.lists(small_rationals, min_size=3, max_size=5).filter(
        lambda cs: cs[-1] != 0
    ),
    t=st.integers(min_value=-3, max_value=3),
)
def test_lattice_certificate_is_sound(coeffs, t):
    poly = RationalPoly(coeffs)
    cert = lattice_check(poly)
    if cert.holds:
        image = poly(cert.step * t)
        assert image.denominator == 1
        assert image.numerator % cert.step == 0


def test_lattice_step_is_denominator_lcm():
    cert = lattice_check(RationalPoly([6, 1, Fraction(1, 2), Fraction(1, 3)]))
    assert cert.step == 6
    assert cert.holds


# ====================================================================
# parsing
# ====================================================================


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" 7 ") == 7
    assert parse_rational("-2/5") == Fraction(-2, 5)
    assert parse_rational("0.25") == Fraction(1, 4)
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")
