"""Independent brute-force verification of the classifier.

Every periodic integer point of the supported maps lies inside a computable
window [-bound, bound]:

* even degree, shift >= 1: any point above the max fixed point runs away
  monotonically, so bound = floor of that fixed point;
* even degree, shift <= 0: the real fixed points (if any) sit in [-1, 1];
  the window {-1, 0, 1} is scanned anyway for safety;
* odd degree: the map is monotone with every real fixed point inside
  [-(iroot(|k|, m) + 2), iroot(|k|, m) + 2], except the identity (m = 1,
  k = 0), which fixes every integer: its window only sizes the scan;
* quadratics: pushing through r = a*s + b/2 turns the map into x**2 - q,
  whose periodic points all satisfy |r| <= larger fixed point, giving
  bound = ceil((1 + |b| + sqrt((b-1)**2 - 4ac)) / (2|a|)) exactly.

The oracle computes the window once per map and turns it into a graph: the
window's 2*bound + 1 seeds are nodes, seed x goes to the node of f(x) when
|f(x)| <= bound and to a shared sink otherwise.  That is exactly the escape
rule of iterate_with_escape, whose exception for a point fixed outside the
window never applies to a seed inside it.  A window is one row of five
int64 columns, m, a, b, c and bound, for f = a*x**m + b*x + c.  The
windows of a grid are the blocks of modular's block-graph layer, which
owns the peel, the batcher and the node budget of a batch; the peel strips
every seed that is not on a cycle.  The seeds left, the sink aside, are
exactly the window's cycles.  f is evaluated in int64, one numpy pass per
degree, only on the array path below, whose tables prove that every
intermediate stays below 2**62; every map off it is evaluated seed by seed
with Python ints.  Each cycle is then walked once with iterate_with_escape
from its least seed, which orders it and re-derives it exactly, and the
harvest is compared with the classifier's answer.  The two computations
share no formulas, which is the point.

grid_cycles is the one way into the window graph.  It takes a product
grid of parameters and builds no map it does not need; oracle_cycles runs
a grid of one map.  The bounds of a grid come from tables of exact
integers, n**m and n**m - n for each degree and an integer square root
for quadratics, as whole-array operations.  Python runs per map only
where a map is flagged: where its window holds a cycle, where
classify.cycle_candidates finds a witness that it may have one, or where
the map is off the array path (a subclass of a family, a parameter past
_ARRAY_LIMITS, a window that may pass the int64 fence).  A flagged map is
built, its escape_bound must equal its table bound, its cycles are
confirmed, and the caller cross-checks it.  Every other map has no cycle
in its window and a classifier answer without one, so the two agree
without being built.

A window of more than WINDOW_LIMIT seeds is refused before any graph is
built.
"""

from __future__ import annotations

import bisect
import inspect
import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

from . import classify as classify_module
from .kernel import iroot, max_fixed_point_floor
from .classify import (
    ALL_FIXED,
    Cycle,
    OrbitClassification,
    classify_power,
    classify_quad,
    cycle_candidates,
)
from .maps import PowerMap, QuadMap, int_coefficients
from .modular import batch_ranges, int_power, np, peel

__all__ = [
    "EscapeBound",
    "OrbitTrace",
    "CrossCheckReport",
    "escape_bound",
    "iterate_with_escape",
    "oracle_cycles",
    "grid_cycles",
    "cross_check",
    "escape_is_sound",
    "WINDOW_LIMIT",
]

# the most seeds (graph nodes) one map's escape window may hold: x**2 - k
# up to k = 10**12 fits.  The largest window admitted, x - 1048573 alone,
# peaked at 207 MiB RSS in 0.3 s (Python 3.11, numpy 2.4, 2-vCPU Xeon).
WINDOW_LIMIT = 1 << 21
# every intermediate of an int64 evaluation stays below this
_INT64_FENCE = 1 << 62
# the parameters grid_cycles takes on its array path, below these in
# absolute value: the degree and k of x**m - k, and a, b, c of a quadratic.
# Then 1 + 4k, (b-1)**2 - 4ac and every table entry fit in int64.
_ARRAY_LIMITS = {PowerMap: (62, 1 << 60), QuadMap: (1 << 29,) * 3}


@dataclass(frozen=True)
class EscapeBound:
    """Window radius such that |x| > bound certifies divergence."""

    bound: int
    justification: str


class OrbitTrace(NamedTuple):
    """One integer orbit, followed until repeat, escape, or the cap."""

    seed: int
    points: tuple[int, ...]
    outcome: str  # "enters_cycle" | "escapes" | "truncated"
    cycle: Cycle | None = None
    tail_length: int | None = None
    escape_step: int | None = None
    certificate: str | None = None
    cap: int | None = None


def escape_bound(the_map) -> EscapeBound:
    if isinstance(the_map, PowerMap):
        m, k = the_map.degree, the_map.shift
        if m % 2 == 1:
            return EscapeBound(iroot(abs(k), m) + 2, "odd_degree_monotone")
        if k >= 1:
            return EscapeBound(max_fixed_point_floor(m, k), "max_fixed_point_floor")
        if k == 0:
            return EscapeBound(1, "max_fixed_point_floor")  # fix == 1 exactly
        return EscapeBound(1, "no_real_fixed_point")
    if isinstance(the_map, QuadMap):
        a, b, c = the_map.a, the_map.b, the_map.c
        disc = (b - 1) ** 2 - 4 * a * c
        if disc < 0:
            return EscapeBound(1, "no_real_fixed_point")
        # exact ceil((1 + |b| + sqrt(disc)) / (2|a|)) by integer sqrt bracketing
        num, den = 1 + abs(b), 2 * abs(a)
        t = (num + math.isqrt(disc)) // den
        while t * den - num < 0 or (t * den - num) ** 2 < disc:
            t += 1
        return EscapeBound(t, "conjugacy_pullback")
    raise TypeError(f"no escape bound for {type(the_map).__name__}")


def iterate_with_escape(
    the_map, seed: int, cap: int, *, eb: EscapeBound | None = None
) -> OrbitTrace:
    """Follow one orbit until first repeat, escape past the bound, or cap.

    enters_cycle traces end at the first repeated value; the repeat index is
    the tail length.  escapes traces end at the first point outside the
    window, with a certificate naming the bound.  A seed outside the window
    that the map fixes does not escape: only the identity has one.  eb is
    escape_bound(the_map), for callers that have it already.  An escape
    point with more digits than the int-to-str conversion limit cannot be
    named in its certificate, and is refused with ValueError.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if eb is None:
        eb = escape_bound(the_map)
    bound = eb.bound
    seen: dict[int, int] = {}
    points: list[int] = []
    x = seed
    step = 0
    while True:
        if x in seen:
            start = seen[x]
            points.append(x)
            cycle = Cycle.from_points(points[start:-1])
            return OrbitTrace(seed, tuple(points), "enters_cycle", cycle=cycle, tail_length=start)
        if abs(x) > bound and (step or the_map(x) != x):
            points.append(x)
            try:
                certificate = f"|{x}| > {bound} ({eb.justification})"
            except ValueError:  # only int-to-str conversion raises it here
                limit = sys.get_int_max_str_digits()
                raise ValueError(
                    f"the escape point at step {step} has more than {limit} digits, "
                    "the int-to-str conversion limit"
                ) from None
            return OrbitTrace(
                seed, tuple(points), "escapes", escape_step=step, certificate=certificate
            )
        if step >= cap:
            return OrbitTrace(seed, tuple(points), "truncated", cap=cap)
        seen[x] = step
        points.append(x)
        x = the_map(x)
        step += 1


def _window_graph(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The successor array of one batch of windows, with each block's node
    of seed 0 and its last node.

    batch is (table, calls).  table holds the int64 columns m, a, b, c and
    bound, one per map, and calls the maps off grid_cycles' array path, by
    block; their m, a, b and c are 0.  Block i holds the window of map i,
    and the last node is the sink.  Seed x goes to the node of f(x) when
    |f(x)| <= bound, else to the sink, which goes to itself.  f is
    a*x**m + b*x + c, one numpy pass per degree; a map in calls is called
    seed by seed.
    """
    table, calls = batch
    size = 2 * table[4] + 1
    last = np.cumsum(size) - 1
    zeros = last - table[4]
    n = int(last[-1]) + 1
    succ = np.empty(n + 1, dtype=np.int64)
    succ[n] = n
    degrees = np.flatnonzero(np.bincount(table[0])).tolist()
    if degrees != [0]:
        # a batch of x**m - k (a = 1, b = 0) repeats neither a nor b: the
        # repeated rows are the largest arrays a batch holds
        linear = bool((table[1] != 1).any() or table[2].any())
        rows = [table[0], table[3], table[4], zeros, *(table[1:3] if linear else ())]
        m, c, bound, zero, *ab = np.repeat(np.vstack(rows), size, axis=1)
        x = np.arange(n) - zero
        if len(degrees) == 1:
            y = int_power(x, degrees[0])
        else:
            y = np.zeros_like(x)
            for d in degrees:
                if d:
                    on = m == d
                    y[on] = int_power(x[on], d)
        if linear:
            a, b = ab
            y = a * y + b * x
        y = y + c
        succ[:n] = np.where(np.abs(y) <= bound, zero + y, n)
    for i, the_map in calls.items():
        # exact Python ints; only node numbers go into the array
        zero, bound = int(zeros[i]), int(table[4, i])
        succ[zero - bound : zero + bound + 1] = [
            zero + y if -bound <= y <= bound else n
            for y in map(the_map, range(-bound, bound + 1))
        ]
    return succ, zeros, last


def _batch_cycles(batch) -> tuple[np.ndarray, np.ndarray]:
    """The block and the seed of every window seed of one batch (as in
    _window_graph) that lies on a cycle, in node order."""
    succ, zeros, last = _window_graph(batch)
    # the full peel: window graphs have short tails into the sink
    peeled, _ = peel(succ, bool, jump=False)
    # the sink, last, loops on itself and is never peeled
    nodes = np.flatnonzero(~peeled[:-1])
    block = np.searchsorted(last, nodes)
    return block, nodes - zeros[block]


def _harvest(table: np.ndarray, calls: dict) -> dict[int, list[int]]:
    """The seeds on cycles of each window that has any, ascending, by map:
    table and calls (keys ascending) as in _window_graph, cut into batches
    of modular's node budget."""
    keys = list(calls)
    found: dict[int, list[int]] = {}
    for lo, hi in batch_ranges(2 * table[4] + 1):
        inside = keys[bisect.bisect_left(keys, lo) : bisect.bisect_left(keys, hi)]
        block, seeds = _batch_cycles((table[:, lo:hi], {i - lo: calls[i] for i in inside}))
        for i, seed in zip((block + lo).tolist(), seeds.tolist()):
            found.setdefault(i, []).append(seed)
    return found


_NO_CYCLES = OrbitClassification((), (), (), None)


def _confirm(the_map, eb: EscapeBound, survivors: list[int]) -> OrbitClassification:
    """The cycles of one window, from the seeds its graph left (ascending).

    Each cycle is walked once with iterate_with_escape from its least seed,
    which puts it in orbit order and re-derives it with exact Python ints.
    A walk that does not close a cycle of surviving seeds at once means the
    graph and the map disagree, and raises.
    """
    left = set(survivors)
    cycles = []
    for seed in survivors:
        if seed not in left:
            continue
        trace = iterate_with_escape(the_map, seed, len(survivors), eb=eb)
        if (
            trace.outcome != "enters_cycle"
            or trace.tail_length
            or not left.issuperset(trace.cycle.points)
        ):
            raise RuntimeError(
                f"the window graph of {the_map} keeps {seed} on a cycle, but its "
                f"orbit {trace.points} does not close a cycle of surviving seeds"
            )
        left.difference_update(trace.cycle.points)
        cycles.append(trace.cycle)
    fixed = tuple(sorted(c.points[0] for c in cycles if c.period == 1))
    two = tuple(sorted((c for c in cycles if c.period == 2), key=lambda c: c.points))
    higher = tuple(
        sorted((c for c in cycles if c.period > 2), key=lambda c: (c.period, c.points))
    )
    return OrbitClassification(fixed, two, higher, None)


# ====================================================================
# whole grids
# ====================================================================


def _last(m: int, top: int, s: int, cap: int) -> int:
    """The last n in 0..cap where n**m - s*n is at most top (m >= 2,
    s = 0 or 1, top >= 0), from the float root, moved on Python ints."""
    n = min(int(top ** (1 / m)) + 1, cap)
    while n and n**m - s * n > top:
        n -= 1
    while n < cap and (n + 1) ** m - s * (n + 1) <= top:
        n += 1
    return n


def _power_bounds(m: np.ndarray, k: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """escape_bound(PowerMap(m, k)).bound for int64 columns (|k| < 2**60),
    from one table of exact integers per degree, and whether the window
    evaluates below the int64 fence.

    Odd m: iroot(|k|, m) + 2, where iroot is one less than the number of
    n >= 0 with n**m <= |k|.  Even m: the floor of the max fixed point for
    k >= 1, the number of n >= 1 with n**m - n <= k, as n**m - n grows
    with n >= 1; that number is 1 at k = 0, and the bound is 1 for k < 0.
    A table stops at n = cap, so a bound past cap reads as cap, or cap + 2
    at odd m: still over any window limit below 2*cap + 1 seeds.

    Within such a limit, bound**m + |k| stays below the fence at even m
    (bound**m <= bound + k) and at m = 1; at odd m >= 3 it does where
    bound**m <= 2**61.
    """
    bound = np.ones_like(k)
    inside = np.ones(len(k), dtype=bool)
    for d in np.flatnonzero(np.bincount(m)).tolist():
        on = np.flatnonzero(m == d)
        shift = k[on]
        if d == 1:
            bound[on] = np.abs(shift) + 2
        elif d % 2:
            size = np.abs(shift)
            n = np.arange(_last(d, int(size.max()), 0, cap) + 1)
            bound[on] = np.searchsorted(int_power(n, d), size, "right") + 1
            inside[on] = bound[on] <= _last(d, _INT64_FENCE // 2, 0, cap)
        elif d:
            n = np.arange(1, _last(d, max(int(shift.max()), 0), 1, cap) + 1)
            bound[on] = np.maximum(np.searchsorted(int_power(n, d) - n, shift, "right"), 1)
    return bound, inside


def _quad_bounds(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """escape_bound(QuadMap(a, b, c)).bound for int64 columns (|a|, |b|,
    |c| < 2**29).

    With disc = (b-1)**2 - 4ac >= 0 the bound is the least t with
    t*2|a| - 1 - |b| >= sqrt(disc).  The left side is an integer, so that
    holds when it is at least s, the least integer with s**2 >= disc:
    t = ceil((1 + |b| + s) / (2|a|)).  The float root of disc, truncated,
    is s or s - 1, told apart by its square.
    """
    disc = (b - 1) ** 2 - 4 * a * c
    s = np.sqrt(np.maximum(disc, 0)).astype(np.int64)
    s += s * s < disc
    t = -(-(1 + np.abs(b) + s) // (2 * np.abs(a)))
    return np.where(disc < 0, 1, t)


def _grid_table(cls, axes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table of _window_graph for the maps of a product grid, with
    which of them have table bounds and which windows evaluate in int64.

    A map gets a table bound when cls is a family's own class (not a
    subclass) and every parameter is below _ARRAY_LIMITS; every other
    entry of the table is 1 until its map is built.
    """
    count = math.prod(map(len, axes))
    table = np.ones((5, count), dtype=np.int64)
    tabled = np.zeros(count, dtype=bool)
    inside = np.ones(count, dtype=bool)
    if int_coefficients(cls(*(values[0] for values in axes))) is None:
        return table, tabled, inside
    arrays, fits = [], []
    for values, limit in zip(axes, _ARRAY_LIMITS[cls]):
        fit = [abs(v) < limit for v in values]
        arrays.append(np.array([v if ok else 1 for v, ok in zip(values, fit)], dtype=np.int64))
        fits.append(np.array(fit))
    tabled[:] = True
    for fit in np.meshgrid(*fits, indexing="ij"):
        tabled &= fit.ravel()
    cols = [col.ravel() for col in np.meshgrid(*arrays, indexing="ij")]
    # the columns int_coefficients gives: x**m - k is (m, 1, 0, -k)
    if cls is PowerMap:
        table[0], table[2], table[3] = cols[0], 0, -cols[1]
        table[4], inside = _power_bounds(cols[0], cols[1], WINDOW_LIMIT // 2 + 1)
    else:
        # below _ARRAY_LIMITS, |a|*bound**2 + |b|*bound + |c| < 2**61
        table[0], table[1:4] = 2, cols
        table[4] = _quad_bounds(*cols)
    return table, tabled, inside


def _own_classifiers() -> bool:
    """Whether cross_check's classifiers are classify's own, which
    cycle_candidates describes; a wrapper that names its function in
    __wrapped__ counts as that function."""
    return (
        inspect.unwrap(classify_power) is classify_module.classify_power
        and inspect.unwrap(classify_quad) is classify_module.classify_quad
    )


def grid_cycles(cls, axes) -> list[tuple[int, object, OrbitClassification]]:
    """The maps of a product grid that either side flags, with the
    oracle's harvest of each.

    cls is a map family's class and axes its parameter lists, in field
    order: map i is cls(*params) for the i-th params of
    itertools.product(*axes).  Returns (i, map, harvest) for each flagged
    map, ascending.  The oracle flags a map whose window holds a cycle,
    and classify.cycle_candidates a map that its witnesses say may have
    one.  A map with no table bound, or whose window may pass the int64
    fence, is off the array path: it is evaluated seed by seed with Python
    ints, and flagged too.  Only flagged maps are built.  Every other map
    has no cycle in its window, and classify_power or classify_quad gives
    it none, so the two agree; when cross_check's classifiers are not
    classify's own, every map is flagged.

    A flagged map's escape_bound must equal its table bound.  A window
    over WINDOW_LIMIT refuses the grid with ValueError, naming its first
    such map, before any graph is built.  The peel ends after at most as
    many rounds as the graph has nodes, so no seed needs a step cap.
    behavior is left None; the oracle observes, it does not prove limits.
    """
    # a family refuses its first parameter (the degree, or a); one map for
    # each of its values checks them as building the whole grid would
    for v in axes[0]:
        cls(v, *(values[0] for values in axes[1:]))
    table, tabled, inside = _grid_table(cls, axes)
    built: dict[int, tuple[object, EscapeBound]] = {}

    def make(i: int):
        params = []
        for values in reversed(axes):
            i, j = divmod(i, len(values))
            params.append(values[j])
        return cls(*reversed(params))

    def build(i: int) -> tuple[object, EscapeBound]:
        if i not in built:
            the_map = make(i)
            eb = escape_bound(the_map)
            if tabled[i] and eb.bound != table[4, i]:
                raise RuntimeError(
                    f"escape bound {eb.bound} of {the_map}, table bound {table[4, i]}"
                )
            built[i] = the_map, eb
        return built[i]

    # capped: a bound such as x**2 - 10**40's does not fit in int64
    for i in np.flatnonzero(~tabled).tolist():
        table[4, i] = min(build(i)[1].bound, WINDOW_LIMIT)
    over = np.flatnonzero(2 * table[4] + 1 > WINDOW_LIMIT)[:1].tolist()
    if over:
        if over[0] in built:
            the_map, eb = built[over[0]]
        else:
            # a table bound past the limit may be cut short: name the exact one
            the_map = make(over[0])
            eb = escape_bound(the_map)
        raise ValueError(
            f"the escape window of {the_map} holds {2 * eb.bound + 1} seeds, "
            f"over the oracle's limit of {WINDOW_LIMIT}"
        )
    flagged = np.zeros(len(tabled), dtype=bool)
    flagged[tabled] = cycle_candidates(*table[:4, tabled])
    per_map = np.flatnonzero(~(tabled & inside)).tolist()
    table[:4, per_map] = 0
    found = _harvest(table, {i: build(i)[0] for i in per_map})
    flagged[per_map] = True
    flagged[list(found)] = True
    if not _own_classifiers():
        flagged[:] = True
    harvests = []
    for i in np.flatnonzero(flagged).tolist():
        the_map, eb = build(i)
        harvests.append((i, the_map, _confirm(the_map, eb, found[i]) if i in found else _NO_CYCLES))
    return harvests


def oracle_cycles(the_map) -> OrbitClassification:
    """Every cycle inside the map's escape window: grid_cycles over the
    grid of one map, one value for each of its dataclass fields.  A map
    that neither side flags has no cycle in its window."""
    axes = [[getattr(the_map, field.name)] for field in fields(the_map)]
    harvests = grid_cycles(type(the_map), axes)
    return harvests[0][2] if harvests else _NO_CYCLES


@dataclass(frozen=True)
class CrossCheckReport:
    """Structural comparison of classifier prediction and oracle harvest."""

    the_map: object
    agree: bool
    predicted: OrbitClassification
    observed: OrbitClassification
    diff: str


def cross_check(the_map, observed: OrbitClassification | None = None) -> CrossCheckReport:
    """Compare classifier and oracle on one map.

    observed is the oracle's harvest for the map, from a grid_cycles call
    over a whole grid; without it oracle_cycles runs the grid of this one
    map.  A nonempty higher_cycles from the oracle is always a reported
    anomaly: no supported map has integral cycles of period above 2.
    """
    if isinstance(the_map, PowerMap):
        predicted = classify_power(the_map)
    elif isinstance(the_map, QuadMap):
        predicted = classify_quad(the_map)
    else:
        raise TypeError(f"no classifier for {type(the_map).__name__}")
    if observed is None:
        observed = oracle_cycles(the_map)
    problems = []
    if predicted.behavior == ALL_FIXED:
        eb = escape_bound(the_map)
        window = tuple(range(-eb.bound, eb.bound + 1))
        if observed.fixed_points != window:
            problems.append("identity map: not every scanned seed is fixed")
        if observed.two_cycles or observed.higher_cycles:
            problems.append("identity map: oracle found non-trivial cycles")
    else:
        if predicted.fixed_points != observed.fixed_points:
            problems.append(
                f"fixed points differ: predicted {predicted.fixed_points}, "
                f"observed {observed.fixed_points}"
            )
        if predicted.two_cycles != observed.two_cycles:
            problems.append(
                f"2-cycles differ: predicted {predicted.two_cycles}, "
                f"observed {observed.two_cycles}"
            )
    if observed.higher_cycles:
        problems.append(f"anomaly: cycles of period > 2 observed: {observed.higher_cycles}")
    diff = "; ".join(problems) if problems else ""
    return CrossCheckReport(the_map, not problems, predicted, observed, diff)


def escape_is_sound(the_map, trace: OrbitTrace, extra_steps: int = 10) -> bool:
    """Re-iterate past an escape point; the escape gauge must grow strictly.

    The gauge is |x| for power maps of degree >= 2 and |2a*x + b| for
    quadratics (the quantity the conjugacy argument certifies; |x| itself
    need not grow monotonically when the leading coefficient is negative).
    """
    if trace.outcome != "escapes":
        raise ValueError("soundness applies to escape traces")
    if isinstance(the_map, PowerMap):
        if the_map.degree < 2:
            raise ValueError("no monotone gauge in degree 1")
        gauge = abs
    elif isinstance(the_map, QuadMap):
        a, b = the_map.a, the_map.b
        gauge = lambda x: abs(2 * a * x + b)  # noqa: E731
    else:
        raise TypeError(f"no escape gauge for {type(the_map).__name__}")
    x = trace.points[-1]
    level = gauge(x)
    for _ in range(extra_steps):
        x = the_map(x)
        nxt = gauge(x)
        if nxt <= level:
            return False
        level = nxt
    return True
