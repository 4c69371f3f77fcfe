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

The oracle computes the window once per map, follows every seed in it with
iterate_with_escape until the orbit revisits a value or leaves the window,
then compares the harvested cycles with the classifier's answer.  The two
computations share no formulas, which is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .kernel import iroot, max_fixed_point_floor
from .classify import (
    ALL_FIXED,
    Cycle,
    OrbitClassification,
    classify_power,
    classify_quad,
)
from .maps import PowerMap, QuadMap

__all__ = [
    "EscapeBound",
    "OrbitTrace",
    "CrossCheckReport",
    "escape_bound",
    "iterate_with_escape",
    "oracle_cycles",
    "cross_check",
    "escape_is_sound",
]


@dataclass(frozen=True)
class EscapeBound:
    """Window radius such that |x| > bound certifies divergence."""

    bound: int
    justification: str


class OrbitTrace(NamedTuple):
    """One integer orbit, followed until repeat, escape, or the cap.

    A named tuple rather than a frozen dataclass like the other records:
    the oracle builds one per seed, and a tuple builds in about a third of
    the time.
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
    escape_bound(the_map), for callers that follow many seeds of one map.
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


def oracle_cycles(the_map) -> OrbitClassification:
    """Harvest every cycle reachable from seeds inside the escape window.

    Deterministic: one escape bound per map, then every seed in the window
    is followed in ascending order with cap 4*bound + 4, which pigeonholes
    every non-escaping orbit into a repeat.  behavior is left None; the
    oracle observes, it does not prove limits.
    """
    eb = escape_bound(the_map)
    cap = 4 * eb.bound + 4
    cycles: dict[tuple[int, ...], Cycle] = {}
    for seed in range(-eb.bound, eb.bound + 1):
        trace = iterate_with_escape(the_map, seed, cap, eb=eb)
        if trace.outcome == "truncated":
            raise RuntimeError(
                f"orbit of {seed} under {the_map} exceeded cap {cap}; "
                "the escape window invariant is broken"
            )
        if trace.outcome == "enters_cycle":
            cycles.setdefault(trace.cycle.points, trace.cycle)
    fixed = tuple(sorted(c.points[0] for c in cycles.values() if c.period == 1))
    two = tuple(sorted((c for c in cycles.values() if c.period == 2), key=lambda c: c.points))
    higher = tuple(
        sorted((c for c in cycles.values() if c.period > 2), key=lambda c: (c.period, c.points))
    )
    return OrbitClassification(fixed, two, higher, None)


@dataclass(frozen=True)
class CrossCheckReport:
    """Structural comparison of classifier prediction and oracle harvest."""

    the_map: object
    agree: bool
    predicted: OrbitClassification
    observed: OrbitClassification
    diff: str


def cross_check(the_map) -> CrossCheckReport:
    """Compare classifier and oracle on one map.

    A nonempty higher_cycles from the oracle is always a reported anomaly:
    no supported map has integral cycles of period above 2.
    """
    if isinstance(the_map, PowerMap):
        predicted = classify_power(the_map)
    elif isinstance(the_map, QuadMap):
        predicted = classify_quad(the_map)
    else:
        raise TypeError(f"no classifier for {type(the_map).__name__}")
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
