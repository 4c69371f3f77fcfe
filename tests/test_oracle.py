"""Brute-force oracle: escape bounds, traces, harvest, cross-checks."""

import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitforge.cli as cli_module
from orbitforge.classify import Cycle, OrbitClassification, classify_power, classify_quad
from orbitforge.maps import PowerMap, QuadMap, RationalPoly, int_coefficients
from orbitforge import modular as modular_module
from orbitforge import oracle as oracle_module
from orbitforge.oracle import (
    WINDOW_LIMIT,
    OrbitTrace,
    cross_check,
    escape_bound,
    escape_is_sound,
    grid_cycles,
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
    escaped = OrbitTrace(0, (0, 5), "escapes", escape_step=1, certificate="x")
    with pytest.raises(TypeError, match="function"):
        escape_is_sound(lambda x: 2 * x, escaped)


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


_NO_CYCLES = OrbitClassification((), (), (), None)


def _product_maps(cls, axes):
    return [cls(*params) for params in itertools.product(*axes)]


def _grid_harvests(cls, axes) -> list[OrbitClassification]:
    """The oracle's harvest of every map of a product grid, in order:
    grid_cycles' for each map it flags, _NO_CYCLES for every other."""
    harvests = [_NO_CYCLES] * math.prod(map(len, axes))
    for i, _, seen in grid_cycles(cls, axes):
        harvests[i] = seen
    return harvests


ORACLE_SHA256 = "040e7e1202698cef66dd33516fb0734a870d4411fc87a1bae9e3481a2b14bc39"


def test_oracle_cycles_golden_digest():
    # degree 1 stops at k = 300: its window holds 2|k| + 5 seeds, so the
    # classifier digest's k <= 3000 would scan 9 million of them
    grids = [
        (PowerMap, [[1], list(range(-300, 301))]),
        (PowerMap, [list(range(2, 9)), list(range(-300, 3001))]),
        (QuadMap, [[a for a in range(-3, 4) if a], list(range(-6, 7)), list(range(-60, 61))]),
    ]
    digest = hashlib.sha256()
    # one grid_cycles call per grid, as the oracle subcommand makes
    for cls, axes in grids:
        for observed in _grid_harvests(cls, axes):
            digest.update(repr(observed).encode())
    assert digest.hexdigest() == ORACLE_SHA256


def _harvest_by_trace(the_map) -> OrbitClassification:
    """oracle_cycles rebuilt from per-seed traces that each compute the bound."""
    bound = escape_bound(the_map).bound
    cycles = set()
    for seed in range(-bound, bound + 1):
        trace = iterate_with_escape(the_map, seed, 4 * bound + 4)
        assert trace.outcome != "truncated"
        if trace.outcome == "enters_cycle":
            cycles.add(trace.cycle)
    ordered = sorted(cycles, key=lambda c: (c.period, c.points))
    return OrbitClassification(
        tuple(c.points[0] for c in ordered if c.period == 1),
        tuple(c for c in ordered if c.period == 2),
        tuple(c for c in ordered if c.period > 2),
        None,
    )


class _Planted(PowerMap):
    """x**2 - 20 with the 3-cycle 1 -> 3 -> 2 -> 1 planted in its window
    [-5, 5]; every other shift is left alone."""

    def __call__(self, x):
        if self.shift == 20 and x in (1, 2, 3):
            return {1: 3, 3: 2, 2: 1}[x]
        return super().__call__(x)


@settings(max_examples=60)
@given(
    the_map=st.one_of(
        st.builds(PowerMap, st.integers(1, 8), st.integers(-50, 2000)),
        # the AC4 box
        st.builds(
            QuadMap, st.integers(-3, 3).filter(bool), st.integers(-6, 6), st.integers(-60, 60)
        ),
        # off the array path, each window small: a subclass, degree 62 and
        # up, shifts past 2**60 at degree 7 and up, and quads whose leading
        # coefficient is past 2**29 and divides c up to a small rest
        st.builds(_Planted, st.just(2), st.integers(-5, 40)),
        st.builds(PowerMap, st.integers(62, 70), st.integers(-(2**64), 2**64)),
        st.builds(
            PowerMap,
            st.integers(7, 12),
            st.one_of(st.integers(2**60, 2**64), st.integers(-(2**64), -(2**60))),
        ),
        st.builds(
            lambda a, b, j, rest: QuadMap(a, b, a * j + rest),
            st.one_of(st.integers(2**29, 2**64), st.integers(-(2**64), -(2**29))),
            st.integers(-6, 6),
            st.integers(-9, 9),
            st.integers(-60, 60),
        ),
    )
)
def test_oracle_cycles_matches_per_seed_traces(the_map):
    assert oracle_cycles(the_map) == _harvest_by_trace(the_map)


def test_oracle_cycles_computes_one_bound_per_map(monkeypatch):
    # at most one bound, and only for a map that either side flags: a map
    # on the array path that neither flags takes its bound from a table
    calls = []
    real = oracle_module.escape_bound
    monkeypatch.setattr(oracle_module, "escape_bound", lambda m: calls.append(m) or real(m))
    assert oracle_cycles(PowerMap(2, 3000)) == _NO_CYCLES
    assert calls == []
    # 3080 = 55 * 56: fixed points -55 and 56; degree 64 and the subclass
    # take the per-map path
    for the_map in (PowerMap(2, 3080), PowerMap(64, 0), _Planted(2, 20)):
        calls.clear()
        assert oracle_cycles(the_map) != _NO_CYCLES
        assert calls == [the_map]


def test_grid_cycles_span_batches():
    # ~600 seeds a window: the grid fills several batches; the shifts
    # 89700 = 299 * 300 and 89701 have cycles
    axes = [[2], list(range(89650, 89750))]
    maps = _product_maps(PowerMap, axes)
    assert sum(2 * escape_bound(m).bound + 1 for m in maps) > 3 * modular_module._BATCH_NODES
    expected = [_harvest_by_trace(m) for m in maps]
    assert expected[50].fixed_points == (-299, 300)
    assert _grid_harvests(PowerMap, axes) == expected


def _below_the_fence(the_map, bound: int) -> bool:
    """Whether int64 evaluates the_map exactly on [-bound, bound]: every
    intermediate is at most |a|*bound**m + |b|*bound + |c| for
    a*x**m + b*x + c, when no power of x above the m-th is formed."""
    m, a, b, c = int_coefficients(the_map)
    return abs(a) * bound**m + abs(b) * bound + abs(c) < 2**62


def test_grid_cycles_across_the_int64_fence(monkeypatch):
    # a parameter past _ARRAY_LIMITS, or a window that may pass the int64
    # fence, sends its map off the array path, to be evaluated with Python
    # ints, whether or not its values stay below 2**62: x**7 - k with
    # 2**60 <= |k| < 2**62 and a quadratic with a = 2**29 do.  Each grid
    # puts such windows next to array-path windows in one batch, and then
    # goes through the default batching.
    grids = [
        (PowerMap, [[2, 7, 9, 64], [-(2**62), -(2**60), 0, 6, 7, 20]]),
        (PowerMap, [[7], [20, 2**60, 2**61, 2**62 - 1]]),
        (QuadMap, [[1, 2**59, -(2**62), 2**62], [0, 1, 2], [-7, -6, -2, 0]]),
        (QuadMap, [[2**29 - 1, 2**29], [0], [-(2**29) * 10**6, -7, 0]]),
    ]
    expected = []
    every_kind = set()
    for cls, axes in grids:
        maps = _product_maps(cls, axes)
        _, tabled, inside = oracle_module._grid_table(cls, axes)
        kinds = {
            "array"
            if on_path
            else "below" if _below_the_fence(the_map, escape_bound(the_map).bound) else "past"
            for the_map, on_path in zip(maps, (tabled & inside).tolist())
        }
        assert "array" in kinds and len(kinds) > 1, axes
        every_kind |= kinds
        expected.append([_harvest_by_trace(m) for m in maps])
        assert _grid_harvests(cls, axes) == expected[-1]
    assert every_kind == {"array", "below", "past"}
    # Python-int windows with fixed points, between array-path blocks
    assert expected[0][3 * 6 + 2].fixed_points == (0, 1)  # x**64
    assert expected[2][2 * 12 + 1 * 4 + 3].fixed_points == (0,)
    batches = []
    real = oracle_module._batch_cycles
    monkeypatch.setattr(oracle_module, "_batch_cycles", lambda b: batches.append(b) or real(b))
    for (cls, axes), harvests in zip(grids, expected):
        maps = _product_maps(cls, axes)
        budget = sum(2 * escape_bound(m).bound + 1 for m in maps)
        monkeypatch.setattr(modular_module, "_BATCH_NODES", budget)
        batches.clear()
        assert _grid_harvests(cls, axes) == harvests
        assert len(batches) == 1


@pytest.mark.parametrize(
    "axes",
    [
        # bounds 3, 4, 4: 4**31 is 2**62
        [[31], [2**31 - 1, 2**31, -(2**31)]],
        # bounds 16, 17, 17: 16**15 is 2**60, 17**15 about 2**61.3
        [[15], [14**15, 2**59, -(2**59)]],
    ],
)
def test_odd_windows_at_the_int64_fence(axes):
    # an odd window stays on the array path while bound**m <= 2**61, half
    # the fence, so that bound**m + |k| stays below 2**62; just past that
    # edge int64 would still hold the values, and the map goes off the path
    maps = _product_maps(PowerMap, axes)
    table, tabled, inside = oracle_module._grid_table(PowerMap, axes)
    bounds = [escape_bound(m).bound for m in maps]
    assert table[4].tolist() == bounds and tabled.all()
    assert [b**m.degree <= 2**61 for b, m in zip(bounds, maps)] == [True, False, False]
    assert inside.tolist() == [True, False, False]
    assert _grid_harvests(PowerMap, axes) == [_harvest_by_trace(m) for m in maps]


def test_planted_three_cycle_is_reported(monkeypatch, capsys):
    # the subclass is called seed by seed; its other shifts keep the
    # family's harvest
    got = [seen for _, _, seen in grid_cycles(_Planted, [[2], list(range(10, 31))])]
    planted = got[10]
    assert planted.higher_cycles == (Cycle(3, (1, 3, 2)),)
    assert planted.fixed_points == (-4, 5)
    assert planted == oracle_cycles(_Planted(2, 20)) == _harvest_by_trace(_Planted(2, 20))
    others = [k for k in range(10, 31) if k != 20]
    assert got[:10] + got[11:] == [_harvest_by_trace(PowerMap(2, k)) for k in others]
    report = cross_check(_Planted(2, 20), planted)
    assert not report.agree
    assert report.diff.startswith("anomaly: cycles of period > 2")
    # the gate trips on it, and names the one-map run that shows it again
    monkeypatch.setitem(cli_module.FAMILIES, "power", _Planted)
    assert cli_module.main(["oracle", "power", "--m", "2", "--k=10..30"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "checked 21 maps: 1 disagreements"
    (line,) = [line for line in lines if "DISAGREE" in line]
    assert line.startswith("power degree=2 shift=20: DISAGREE: anomaly: cycles of period > 2")
    assert line.endswith("(reproduce: orbitforge oracle power --m 2 --k=20)")


def test_window_confirmation_refuses_a_graph_the_map_contradicts(monkeypatch):
    # a window graph that keeps a seed the exact walk sends out of the window
    real = oracle_module._window_graph

    def forged(batch):
        succ, zeros, ends = real(batch)
        succ[int(zeros[0])] = int(zeros[0])  # seed 0 made fixed
        return succ, zeros, ends

    monkeypatch.setattr(oracle_module, "_window_graph", forged)
    with pytest.raises(RuntimeError, match="does not close"):
        oracle_cycles(PowerMap(2, 7))


def test_oversized_window_is_refused_before_any_graph(monkeypatch):
    def built(batch):
        raise AssertionError("a window graph was built")

    monkeypatch.setattr(oracle_module, "_window_graph", built)
    # degree 1 has a window of 2|k| + 5 seeds: one over the limit here
    over = PowerMap(1, (WINDOW_LIMIT - 4) // 2)
    assert 2 * escape_bound(over).bound + 1 == WINDOW_LIMIT + 1
    with pytest.raises(ValueError, match=f"limit of {WINDOW_LIMIT}"):
        oracle_cycles(over)
    # one bad map refuses its whole grid
    with pytest.raises(ValueError, match=f"limit of {WINDOW_LIMIT}"):
        grid_cycles(PowerMap, [[2], [5, 10**40]])


def test_a_refused_grid_bounds_each_map_at_most_once(monkeypatch):
    calls = []
    real = oracle_module.escape_bound
    monkeypatch.setattr(oracle_module, "escape_bound", lambda m: calls.append(m) or real(m))
    with pytest.raises(ValueError) as refused:
        oracle_cycles(PowerMap(2, 10**40))
    assert calls == [PowerMap(2, 10**40)]
    assert str(refused.value) == (
        "the escape window of PowerMap(degree=2, shift=1" + "0" * 40 + ") holds "
        "200000000000000000001 seeds, over the oracle's limit of 2097152"
    )
    # the maps off the table are bounded first (grid order is degree
    # first); the grid names its first map over the limit, off the table
    # or on it, where a table bound is cut short and is computed again
    for axes, first, seeds in (
        ([[2, 64], [5, 10**40, 2**61]], PowerMap(2, 10**40), "200000000000000000001"),
        ([[2, 64], [5, 10**13, 10**40]], PowerMap(2, 10**13), "6324557"),
        ([[1, 2], [5, 1048580, 10**40]], PowerMap(1, 1048580), "2097165"),
    ):
        calls.clear()
        with pytest.raises(ValueError) as refused:
            grid_cycles(PowerMap, axes)
        assert len(calls) == len(set(calls)) and first in calls
        assert str(refused.value) == (
            f"the escape window of {first} holds {seeds} seeds, "
            "over the oracle's limit of 2097152"
        )


def test_window_limit_admits_a_window_of_its_size(monkeypatch):
    monkeypatch.setattr(oracle_module, "WINDOW_LIMIT", 5)
    assert oracle_cycles(PowerMap(1, 0)).fixed_points == (-2, -1, 0, 1, 2)
    with pytest.raises(ValueError, match="limit of 5"):
        oracle_cycles(PowerMap(1, 1))


# ====================================================================
# whole grids
# ====================================================================


def _check_table_bounds(cls, axes):
    """The table bound of every map of the grid is its escape_bound, or
    both are over WINDOW_LIMIT; a window the table keeps on the array path
    evaluates in int64."""
    table, tabled, inside = oracle_module._grid_table(cls, axes)
    assert tabled.all()
    for i, the_map in enumerate(_product_maps(cls, axes)):
        eb = escape_bound(the_map).bound
        if 2 * eb + 1 <= WINDOW_LIMIT:
            assert table[4, i] == eb, the_map
            if inside[i]:
                assert _below_the_fence(the_map, eb), the_map
        else:
            assert 2 * table[4, i] + 1 > WINDOW_LIMIT, the_map


def test_power_table_bounds_equal_escape_bound():
    _check_table_bounds(PowerMap, [list(range(1, 9)), list(range(-300, 301))])
    # the ends of the array path (|k| < 2**60), the shifts where a window
    # reaches WINDOW_LIMIT, and both sides of perfect powers near them
    top = (1 << 60) - 1
    half = WINDOW_LIMIT // 2
    for m in range(1, 9):
        ks = {top, -top, top - 1, -top + 1}
        for n in (half - 3, half - 2, half - 1, half, 2**10, 3**7):
            for k in (n**m - n, n**m, n - n**m, -(n**m)):
                ks.update(k + d for d in (-1, 0, 1) if abs(k + d) <= top)
        _check_table_bounds(PowerMap, [[m], sorted(ks)])
    # high degrees on small shifts, where odd windows leave int64
    _check_table_bounds(PowerMap, [list(range(9, 62)), list(range(-40, 41))])


def test_quad_table_bounds_equal_escape_bound():
    _check_table_bounds(
        QuadMap, [[a for a in range(-6, 7) if a], list(range(-12, 13)), list(range(-60, 61))]
    )
    # the ends of the array path: |a|, |b|, |c| < 2**29
    end = (1 << 29) - 1
    near = sorted({-end, -end + 1, -1, 1, end - 1, end})
    _check_table_bounds(QuadMap, [near, [*near, 0], [*near, 0]])


def test_grid_cycles_match_per_seed_traces():
    # the flagged maps carry the harvest of per-seed traces; every other
    # map has no cycle in its window and a classifier answer without one
    grids = [
        (PowerMap, [list(range(1, 10)), list(range(-300, 301))]),
        (QuadMap, [[a for a in range(-3, 4) if a], list(range(-6, 7)), list(range(-60, 61))]),
        # off the array path: high degree, shifts past 2**60, windows past
        # the int64 fence (x**41 - 1), and quads past 2**29 (c stops at
        # 2**40: a = -(2**29) with c = 2**62 has a window of 185,365 seeds,
        # 2 s of per-seed traces)
        (PowerMap, [[5, 41, 61, 62, 64], [-2, -1, 0, 1, 2, 3, 30, 2**60, -(2**60), 2**62]]),
        (QuadMap, [[1, -(2**29), 2**62], [-1, 0, 3], [-(2**29), -2, 0, 2**40]]),
    ]
    for cls, axes in grids:
        maps = _product_maps(cls, axes)
        flagged = {i: (the_map, seen) for i, the_map, seen in grid_cycles(cls, axes)}
        assert 0 < len(flagged) < len(maps)
        for i, the_map in enumerate(maps):
            seen = _harvest_by_trace(the_map)
            if i in flagged:
                assert flagged[i] == (the_map, seen)
            else:
                assert seen == _NO_CYCLES, the_map
                assert cross_check(the_map, seen).agree
                got = classify_power(the_map) if cls is PowerMap else classify_quad(the_map)
                assert not (got.fixed_points or got.two_cycles or got.higher_cycles), the_map


def test_grid_cycles_flag_every_map_off_the_array_path(monkeypatch):
    # a subclass may redefine its map: nothing of it is read off a table
    axes = [[2], list(range(10, 31))]
    flagged = grid_cycles(_Planted, axes)
    assert [i for i, _, _ in flagged] == list(range(21))
    assert all(type(the_map) is _Planted for _, the_map, _ in flagged)
    assert flagged[10][2].higher_cycles == (Cycle(3, (1, 3, 2)),)
    # another classifier under cross_check's names is not what the
    # witnesses describe; a wrapper that names classify's own in
    # __wrapped__ is
    own = [i for i, _, _ in grid_cycles(PowerMap, axes)]
    assert len(own) < 21

    def wrapped(power):
        return classify_power(power)

    monkeypatch.setattr(oracle_module, "classify_power", wrapped)
    assert [i for i, _, _ in grid_cycles(PowerMap, axes)] == list(range(21))
    wrapped.__wrapped__ = classify_power
    assert [i for i, _, _ in grid_cycles(PowerMap, axes)] == own


def test_grid_cycles_refuse_an_escape_bound_off_the_table(monkeypatch):
    real = oracle_module.escape_bound

    def off_by_one(the_map):
        eb = real(the_map)
        return oracle_module.EscapeBound(eb.bound + 1, eb.justification)

    monkeypatch.setattr(oracle_module, "escape_bound", off_by_one)
    # x**2 - 6 has fixed points, so the grid builds it and checks its bound
    with pytest.raises(RuntimeError, match="table bound 3"):
        grid_cycles(PowerMap, [[2], [5, 6]])


def test_grid_cycles_flag_a_window_cycle_the_witnesses_miss(monkeypatch):
    # the oracle side flags on its own: with no witness at all, every map
    # whose window holds a cycle is still built and harvested
    axes = [[2, 3, 4], list(range(-5, 40))]
    maps = _product_maps(PowerMap, axes)
    with_cycles = [i for i, m in enumerate(maps) if _harvest_by_trace(m) != _NO_CYCLES]
    monkeypatch.setattr(oracle_module, "cycle_candidates", lambda m, a, b, c: m < 0)
    flagged = grid_cycles(PowerMap, axes)
    assert [i for i, _, _ in flagged] == with_cycles
    assert all(seen == _harvest_by_trace(the_map) for _, the_map, seen in flagged)


def test_grid_window_limit_counts_every_seed(monkeypatch):
    # an odd limit: x**2 - 6 has a window of 7 seeds, x**2 - 2 one of 5
    monkeypatch.setattr(oracle_module, "WINDOW_LIMIT", 5)
    assert [i for i, _, _ in grid_cycles(PowerMap, [[2], [2, 3]])] == [0, 1]
    with pytest.raises(ValueError, match="holds 7 seeds, over the oracle's limit of 5"):
        grid_cycles(PowerMap, [[2], [2, 6]])
