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
window never applies to a seed inside it.  The windows of a grid are the
blocks of modular's block-graph layer, which owns the peel, the batcher
and the node budget of a batch; the peel strips every seed that is not on
a cycle.  The seeds left, the sink aside, are exactly the window's
cycles.  f is evaluated in int64, one numpy pass per degree, only where
every intermediate provably stays below 2**62; any other map is evaluated
with Python ints.  Each cycle is then walked once with iterate_with_escape
from its least seed, which orders it and re-derives it exactly, and the
harvest is compared with the classifier's answer.  The two computations
share no formulas, which is the point.

A window of more than WINDOW_LIMIT seeds is refused before anything is
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernel import iroot, max_fixed_point_floor
from .classify import (
    ALL_FIXED,
    Cycle,
    OrbitClassification,
    classify_power,
    classify_quad,
)
from .maps import PowerMap, QuadMap, int_coefficients
from .modular import batches, int_power, peel

__all__ = [
    "EscapeBound",
    "OrbitTrace",
    "CrossCheckReport",
    "escape_bound",
    "iterate_with_escape",
    "window_cycles",
    "oracle_cycles",
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


@dataclass(frozen=True)
class EscapeBound:
    """Window radius such that |x| > bound certifies divergence."""

    bound: int
    justification: str


class OrbitTrace(NamedTuple):
    """One integer orbit, followed until repeat, escape, or the cap.

    A named tuple rather than a frozen dataclass like the other records:
    a tuple builds in about a third of the time.
    """

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
    escape_bound(the_map), for callers that have it already.
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
            certificate = f"|{x}| > {bound} ({eb.justification})"
            return OrbitTrace(
                seed, tuple(points), "escapes", escape_step=step, certificate=certificate
            )
        if step >= cap:
            return OrbitTrace(seed, tuple(points), "truncated", cap=cap)
        seen[x] = step
        points.append(x)
        x = the_map(x)
        step += 1


def _int64_form(the_map, bound: int) -> tuple[int, int, int, int] | None:
    """maps.int_coefficients(the_map), (m, a, b, c), when int64 evaluates
    a*x**m + b*x + c exactly on [-bound, bound]; else None.

    Every intermediate is at most |a|*bound**m + |b|*bound + |c| in
    absolute value (B**m + |k| for x**m - k): int_power forms no power of
    x above the m-th, so below 2**62 nothing wraps.
    """
    if form := int_coefficients(the_map):
        m, a, b, c = form
        # degree 62 and up is left to Python ints: bound**m alone reaches the
        # fence there unless bound is 1, and then the window has three seeds
        if m < 62 and abs(a) * bound**m + abs(b) * bound + abs(c) < _INT64_FENCE:
            return form
    return None


def _window_graph(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The successor array of one batch of (map, escape bound) pairs, with
    each block's node of seed 0 and its last node.

    Block i holds the window of map i, and the last node is the sink.  Seed
    x goes to the node of f(x) when |f(x)| <= bound, else to the sink,
    which goes to itself.  Maps with an int64 form are evaluated together,
    one numpy pass per degree; any other map is called seed by seed.
    """
    forms, rows, n = [], [], 0
    for the_map, eb in batch:
        bound = eb.bound
        form = _int64_form(the_map, bound)
        forms.append(form)
        # a block without an int64 form gets zero coefficients, and its
        # nodes are overwritten below
        rows.append((*(form or (0, 0, 0, 0)), bound, n + bound))
        n += 2 * bound + 1
    table = np.array(rows, dtype=np.int64).T
    succ = np.empty(n + 1, dtype=np.int64)
    succ[n] = n
    degrees = {form[0] for form in forms if form}
    if degrees:
        m, a, b, c, bound, zero = np.repeat(table, 2 * table[4] + 1, axis=1)
        x = np.arange(n) - zero
        if len(degrees) == 1 and all(forms):
            power = int_power(x, degrees.pop())
        else:
            power = np.zeros_like(x)
            for d in degrees:
                on = m == d
                power[on] = int_power(x[on], d)
        y = a * power + b * x + c
        succ[:n] = np.where(np.abs(y) <= bound, zero + y, n)
    for (the_map, eb), form, zero in zip(batch, forms, table[5].tolist()):
        if form is None:
            # exact Python ints; only node numbers go into the array
            bound = eb.bound
            succ[zero - bound : zero + bound + 1] = [
                zero + y if -bound <= y <= bound else n
                for y in map(the_map, range(-bound, bound + 1))
            ]
    return succ, table[5], table[5] + table[4]


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


def _batch_cycles(batch) -> list[OrbitClassification]:
    """window_cycles of one batch of (map, escape bound) pairs."""
    succ, zeros, ends = _window_graph(batch)
    peeled, _ = peel(succ, bool)
    # the sink, last, loops on itself and is never peeled
    nodes = np.flatnonzero(~peeled[:-1])
    block = np.searchsorted(ends, nodes)
    survivors: dict[int, list[int]] = {}
    for i, seed in zip(block.tolist(), (nodes - zeros[block]).tolist()):
        survivors.setdefault(i, []).append(seed)
    return [
        _confirm(the_map, eb, survivors[i]) if i in survivors else _NO_CYCLES
        for i, (the_map, eb) in enumerate(batch)
    ]


def window_cycles(maps) -> list[OrbitClassification]:
    """Every cycle inside each map's escape window, one classification per
    map, in order.

    Deterministic: one escape bound per map, then the window graph (see the
    module docstring).  The peel ends after at most as many rounds as the
    graph has nodes, so no seed needs a step cap: the pigeonhole argument
    that a capped walk relied on is built into the graph.  A map whose
    window holds more than WINDOW_LIMIT seeds is refused with ValueError
    before any array is built.  behavior is left None; the oracle observes,
    it does not prove limits.
    """
    maps = list(maps)
    bounds = [escape_bound(the_map) for the_map in maps]
    for the_map, eb in zip(maps, bounds):
        if 2 * eb.bound + 1 > WINDOW_LIMIT:
            raise ValueError(
                f"the escape window of {the_map} holds {2 * eb.bound + 1} seeds, "
                f"over the oracle's limit of {WINDOW_LIMIT}"
            )
    return [
        cycles
        for batch in batches(zip(maps, bounds), lambda pair: 2 * pair[1].bound + 1)
        for cycles in _batch_cycles(batch)
    ]


def oracle_cycles(the_map) -> OrbitClassification:
    """Every cycle inside the map's escape window, read off its window
    graph: window_cycles([the_map])[0].  No orbit is capped; the graph
    pass ends by construction.  A grid is cheaper as one window_cycles
    call, which spreads numpy's fixed cost over many windows."""
    return window_cycles([the_map])[0]


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

    observed is the oracle's harvest for the map, from a window_cycles call
    over a whole grid; without it the map's own oracle_cycles is run.  A
    nonempty higher_cycles from the oracle is always a reported anomaly:
    no supported map has integral cycles of period above 2.
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
    return CrossCheckReport(the_map, not problems, predicted, observed, "; ".join(problems))


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
    else:
        a, b = the_map.a, the_map.b
        gauge = lambda x: abs(2 * a * x + b)  # noqa: E731
    x = trace.points[-1]
    level = gauge(x)
    for _ in range(extra_steps):
        x = the_map(x)
        nxt = gauge(x)
        if nxt <= level:
            return False
        level = nxt
    return True
