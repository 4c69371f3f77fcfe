"""Brute-force oracle: escape bounds, traces, harvest, cross-checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.classify import Cycle, classify_power, classify_quad
from orbitforge.maps import PowerMap, QuadMap, RationalPoly
from orbitforge.oracle import (
    cross_check,
    escape_bound,
    escape_is_sound,
    iterate_with_escape,
    oracle_cycles,
)

nonzero_ints = st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0)


# ====================================================================
# escape bounds
# ====================================================================


def test_escape_bound_power_examples():
    assert escape_bound(PowerMap(2, 3)) == escape_bound(PowerMap(2, 3))
    eb = escape_bound(PowerMap(2, 3))
    assert (eb.bound, eb.justification) == (2, "max_fixed_point_floor")
    assert escape_bound(PowerMap(2, 6)).bound == 3  # fixed point exactly 3
    assert escape_bound(PowerMap(2, 0)).bound == 1
    eb = escape_bound(PowerMap(2, -5))
    assert (eb.bound, eb.justification) == (1, "no_real_fixed_point")
    eb = escape_bound(PowerMap(3, 10))
    assert (eb.bound, eb.justification) == (4, "odd_degree_monotone")


def test_escape_bound_quad_examples():
    # ceil((1 + |b| + sqrt((b-1)**2 - 4ac)) / (2|a|)), computed exactly
    eb = escape_bound(QuadMap(1, 1, -2))
    assert (eb.bound, eb.justification) == (3, "conjugacy_pullback")
    assert escape_bound(QuadMap(1, 0, -6)).bound == 3
    assert escape_bound(QuadMap(1, 2, -7)).bound == 5  # ceil((3 + sqrt(29)) / 2)
    eb = escape_bound(QuadMap(1, 0, 1))
    assert (eb.bound, eb.justification) == (1, "no_real_fixed_point")
    with pytest.raises(TypeError):
        escape_bound(RationalPoly([1, 0, 1]))


@given(
    m=st.integers(min_value=2, max_value=7),
    k=st.integers(min_value=-(10**4), max_value=10**4),
)
def test_bound_covers_classified_power_points(m, k):
    the_map = PowerMap(m, k)
    bound = escape_bound(the_map).bound
    got = classify_power(the_map)
    points = list(got.fixed_points)
    for cyc in got.two_cycles:
        points.extend(cyc.points)
    assert all(abs(p) <= bound for p in points)


@given(a=nonzero_ints, b=st.integers(-20, 20), c=st.integers(-50, 50))
def test_bound_covers_classified_quad_points(a, b, c):
    the_map = QuadMap(a, b, c)
    bound = escape_bound(the_map).bound
    got = classify_quad(the_map)
    points = list(got.fixed_points)
    for cyc in got.two_cycles:
        points.extend(cyc.points)
    assert all(abs(p) <= bound for p in points)


# ====================================================================
# single-orbit traces
# ====================================================================


def test_trace_enters_cycle_immediately():
    trace = iterate_with_escape(PowerMap(2, 3), 1, 100)
    assert trace.outcome == "enters_cycle"
    assert trace.cycle == Cycle(2, (-2, 1))
    assert trace.tail_length == 0
    assert trace.points == (1, -2, 1)


def test_trace_tail_then_fixed_point():
    trace = iterate_with_escape(PowerMap(4, 2), 1, 100)
    assert trace.outcome == "enters_cycle"
    assert trace.cycle == Cycle(1, (-1,))
    assert trace.tail_length == 1

    trace = iterate_with_escape(PowerMap(2, 2), 0, 100)
    assert trace.points == (0, -2, 2, 2)
    assert trace.cycle == Cycle(1, (2,))
    assert trace.tail_length == 2


def test_trace_escapes():
    trace = iterate_with_escape(PowerMap(4, 2), 0, 100)
    assert trace.outcome == "escapes"
    assert trace.escape_step == 1
    assert trace.points == (0, -2)
    assert "|-2| > 1" in trace.certificate
    assert "max_fixed_point_floor" in trace.certificate


def test_identity_seed_outside_window_is_fixed():
    # x -> x**1 - 0 fixes every integer; its window radius 2 certifies nothing
    for seed in (3, -3, 100, -100):
        trace = iterate_with_escape(PowerMap(1, 0), seed, 12)
        assert trace.outcome == "enters_cycle"
        assert trace.points == (seed, seed)
        assert trace.cycle == Cycle(1, (seed,))
        assert trace.tail_length == 0
        assert trace.certificate is None


def test_trace_truncation_and_cap_validation():
    trace = iterate_with_escape(PowerMap(2, 7), 2, 1)
    assert trace.outcome == "truncated"
    assert trace.cap == 1
    with pytest.raises(ValueError):
        iterate_with_escape(PowerMap(2, 7), 2, 0)


@given(
    m=st.sampled_from([2, 3, 4, 5, 6]),
    k=st.integers(min_value=-(10**3), max_value=10**3),
    seed=st.integers(min_value=-60, max_value=60),
)
def test_trace_points_follow_the_map(m, k, seed):
    the_map = PowerMap(m, k)
    bound = escape_bound(the_map).bound
    trace = iterate_with_escape(the_map, seed, 4 * bound + 4)
    for x, y in zip(trace.points, trace.points[1:]):
        assert the_map(x) == y
    assert trace.outcome != "truncated"


@settings(max_examples=60)
@given(a=nonzero_ints, b=st.integers(-10, 10), c=st.integers(-30, 30))
def test_escape_soundness_for_quads(a, b, c):
    the_map = QuadMap(a, b, c)
    bound = escape_bound(the_map).bound
    trace = iterate_with_escape(the_map, bound + 1, 4 * bound + 4)
    assert trace.outcome == "escapes"
    assert escape_is_sound(the_map, trace)


@settings(max_examples=60)
@given(m=st.sampled_from([2, 3, 4, 5]), k=st.integers(-100, 100))
def test_escape_soundness_for_powers(m, k):
    the_map = PowerMap(m, k)
    bound = escape_bound(the_map).bound
    trace = iterate_with_escape(the_map, bound + 1, 4 * bound + 4)
    assert trace.outcome == "escapes"
    # six extra steps: degree-5 iterates already reach ~10**4 digits there
    assert escape_is_sound(the_map, trace, extra_steps=6)


def test_escape_is_sound_rejects_wrong_outcome():
    trace = iterate_with_escape(PowerMap(2, 3), 1, 100)
    with pytest.raises(ValueError):
        escape_is_sound(PowerMap(2, 3), trace)


# ====================================================================
# harvest and cross-check
# ====================================================================


def test_oracle_cycles_examples():
    got = oracle_cycles(PowerMap(2, 7))
    assert got.fixed_points == ()
    assert got.two_cycles == (Cycle(2, (-3, 2)),)
    assert got.higher_cycles == ()
    assert got.behavior is None

    got = oracle_cycles(PowerMap(2, 5))
    assert got.fixed_points == () and got.two_cycles == ()

    got = oracle_cycles(QuadMap(1, 2, -7))
    assert got.two_cycles == (Cycle(2, (-4, 1)),)

    got = oracle_cycles(PowerMap(6, 1))
    assert got.fixed_points == ()
    assert got.two_cycles == (Cycle(2, (-1, 0)),)


def test_oracle_is_deterministic():
    assert oracle_cycles(QuadMap(-3, 5, 11)) == oracle_cycles(QuadMap(-3, 5, 11))
    assert oracle_cycles(PowerMap(2, 4999)) == oracle_cycles(PowerMap(2, 4999))


def test_cross_check_examples():
    assert cross_check(PowerMap(2, 7)).agree
    assert cross_check(QuadMap(1, 1, -2)).agree
    rep = cross_check(PowerMap(6, 1))
    assert rep.agree
    assert rep.observed.two_cycles == (Cycle(2, (-1, 0)),)
    with pytest.raises(TypeError):
        cross_check(RationalPoly([1, 0, 1]))


def test_cross_check_identity_map():
    # degree 1, shift 0 fixes every integer; the window must be all-fixed
    rep = cross_check(PowerMap(1, 0))
    assert rep.agree
    assert rep.observed.fixed_points == (-2, -1, 0, 1, 2)


def test_cross_check_degree_one_translation():
    assert cross_check(PowerMap(1, 3)).agree
    assert cross_check(PowerMap(1, -3)).agree


def test_cross_check_reports_planted_disagreement(monkeypatch):
    # force a wrong prediction to prove the comparison has teeth
    import orbitforge.oracle as oracle_module

    def wrong(power):
        real = classify_power(power)
        return type(real)((99,), real.two_cycles, (), real.behavior)

    monkeypatch.setattr(oracle_module, "classify_power", wrong)
    rep = oracle_module.cross_check(PowerMap(2, 6))
    assert not rep.agree
    assert "fixed points differ" in rep.diff


@settings(max_examples=80)
@given(k=st.integers(min_value=-10, max_value=300))
def test_cross_check_degree_two_slice(k):
    assert cross_check(PowerMap(2, k)).agree


@settings(max_examples=80)
@given(a=nonzero_ints, b=st.integers(-6, 6), c=st.integers(-60, 60))
def test_cross_check_quad_slice(a, b, c):
    assert cross_check(QuadMap(a, b, c)).agree
