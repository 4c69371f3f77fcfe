"""Traced run: per-layer metrics of one workload.

Layers are the package modules (kernel, maps, classify, oracle, modular,
cli) plus the process pool (pool).  The run times the same operations
untraced with a pool of workers, untraced with one worker, and
in one traced pass with one worker (spans do not cross the pool).  The
first two give pool.speedup_w2; the last two give trace.overhead_frac.
Counts come from exactly one traced pass, so they repeat exactly for the
same inputs.  Every metric is emitted on every workload; a layer that a
workload does not reach reports 0 next to a zero base count.
"""

from __future__ import annotations

import math
import statistics
import time

from measure import Phase
from spans import Tracer, patched, self_times

# below this modulus a functional_graph call counts as small (modscan-many)
LARGE_NODES = 100_000

APPROX_SPANS = ("kernel.approx_band_floor", "kernel.approx_max_fixed_point", "kernel.approx_q")

# (name, unit, better) of every per-layer metric, in output order
METRICS = (
    ("kernel.approx_band_floor.us_p50", "us", "lower"),
    ("kernel.approx_band_floor.calls", "count", "lower"),
    ("kernel.approx_max_fixed_point.us_p50", "us", "lower"),
    ("kernel.approx_max_fixed_point.calls", "count", "lower"),
    ("kernel.approx_q.us_p50", "us", "lower"),
    ("kernel.approx_q.calls", "count", "lower"),
    ("kernel.bisect_steps", "count", "lower"),
    ("kernel.bisect.calls", "count", "lower"),
    ("kernel.max_fixed_point_floor.us_p50", "us", "lower"),
    ("kernel.max_fixed_point_floor.calls", "count", "lower"),
    ("classify.band_width_exceeds_one.us_p50", "us", "lower"),
    ("classify.band_width_exceeds_one.us_p99", "us", "lower"),
    ("classify.band_width_exceeds_one.levels_per_call", "count", "lower"),
    ("classify.band_width_exceeds_one.calls", "count", "lower"),
    ("classify.band_integers.us_p50", "us", "lower"),
    ("classify.band_integers.calls", "count", "lower"),
    ("classify.classify_map.us_p50", "us", "lower"),
    ("classify.classify_map.calls", "count", "lower"),
    ("classify.share_of_cross_check", "ratio", "lower"),
    ("oracle.cross_check.us_p50", "us", "lower"),
    ("oracle.cross_check.us_p99", "us", "lower"),
    ("oracle.cross_check.calls", "count", "lower"),
    ("oracle.seeds", "count", "lower"),
    ("oracle.steps", "count", "lower"),
    ("oracle.ns_per_step", "ns", "lower"),
    ("oracle.useful_ratio", "ratio", "higher"),
    ("oracle.escape_bound.us_p50", "us", "lower"),
    ("oracle.escape_bound.calls", "count", "lower"),
    ("maps.eval_ns", "ns", "lower"),
    ("maps.evals", "count", "lower"),
    ("modular.functional_graph.ns_per_node.large", "ns", "lower"),
    ("modular.functional_graph.nodes.large", "count", "lower"),
    ("modular.functional_graph.us_per_call.small", "us", "lower"),
    ("modular.functional_graph.calls.small", "count", "lower"),
    ("modular.functional_graph.calls", "count", "lower"),
    ("modular.peel_rounds", "count", "lower"),
    ("modular.cycle_node_ratio", "ratio", "higher"),
    ("modular.nodes", "count", "lower"),
    ("modular.max_cycle_scan.self_ms", "ms", "lower"),
    ("modular.max_cycle_scan.calls", "count", "lower"),
    ("modular.checkpoint.bytes", "bytes", "lower"),
    ("modular.read_checkpoint.ms", "ms", "lower"),
    ("modular.read_checkpoint.calls", "count", "lower"),
    ("pool.speedup_w2", "x", "higher"),
    ("pool.wall_w1_s", "s", "lower"),
    ("pool.wall_w2_s", "s", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.bounds.render_ms", "ms", "lower"),
    ("cli.bounds.render_calls", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# the base of every ratio, mean and percentile above: the count (or the
# times) it is taken over, emitted alongside it
BASES = {
    "kernel.approx_band_floor.us_p50": ("kernel.approx_band_floor.calls",),
    "kernel.approx_max_fixed_point.us_p50": ("kernel.approx_max_fixed_point.calls",),
    "kernel.approx_q.us_p50": ("kernel.approx_q.calls",),
    "kernel.bisect_steps": ("kernel.bisect.calls",),
    "kernel.max_fixed_point_floor.us_p50": ("kernel.max_fixed_point_floor.calls",),
    "classify.band_width_exceeds_one.us_p50": ("classify.band_width_exceeds_one.calls",),
    "classify.band_width_exceeds_one.us_p99": ("classify.band_width_exceeds_one.calls",),
    "classify.band_width_exceeds_one.levels_per_call": ("classify.band_width_exceeds_one.calls",),
    "classify.band_integers.us_p50": ("classify.band_integers.calls",),
    "classify.classify_map.us_p50": ("classify.classify_map.calls",),
    "classify.share_of_cross_check": ("oracle.cross_check.calls",),
    "oracle.cross_check.us_p50": ("oracle.cross_check.calls",),
    "oracle.cross_check.us_p99": ("oracle.cross_check.calls",),
    "oracle.ns_per_step": ("oracle.steps",),
    "oracle.useful_ratio": ("oracle.seeds",),
    "oracle.escape_bound.us_p50": ("oracle.escape_bound.calls",),
    "maps.eval_ns": ("maps.evals",),
    "modular.functional_graph.ns_per_node.large": ("modular.functional_graph.nodes.large",),
    "modular.functional_graph.us_per_call.small": ("modular.functional_graph.calls.small",),
    "modular.peel_rounds": ("modular.functional_graph.calls",),
    "modular.cycle_node_ratio": ("modular.nodes",),
    "modular.max_cycle_scan.self_ms": ("modular.max_cycle_scan.calls",),
    "modular.read_checkpoint.ms": ("modular.read_checkpoint.calls",),
    "pool.speedup_w2": ("pool.wall_w1_s", "pool.wall_w2_s"),
    "cli.main.self_ms": ("cli.main.calls",),
    "cli.bounds.render_ms": ("cli.bounds.render_calls",),
    "trace.overhead_frac": ("trace.wall_s", "pool.wall_w1_s"),
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


class Recorder:
    """Tracer plus the work counts read from return values."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.maps: list = []  # maps handed to cross_check, for maps.eval_ns
        self.graphs: dict = {}  # (map, modulus) -> (span index, summary)
        self.seeds = self.steps = self.useful = 0

    def _on_cross_check(self, idx, args, report) -> None:
        self.maps.append(args[0])

    def _on_iterate(self, idx, args, trace) -> None:
        self.seeds += 1
        self.steps += len(trace.points) - 1  # one map evaluation per step
        self.useful += trace.outcome == "enters_cycle"

    def _on_graph(self, idx, args, summary) -> None:
        self.graphs[(args[0], summary.modulus)] = (idx, summary)

    def hooks(self):
        t = self.tracer

        def span(name, on_result=None):
            return lambda fn: t.wrap(name, fn, on_result)

        def side_predicate(fn):
            # only steps of the decimal bisection, not of the integer
            # bracket search (max_fixed_point_floor_q) around it
            return t.wrap_count("kernel.side_predicate", fn, under=("kernel.bisect",))

        return [
            # cli -> everything below it
            ("orbitforge.cli", "main", span("cli.main")),
            ("orbitforge.cli", "cross_check", span("oracle.cross_check", self._on_cross_check)),
            ("orbitforge.cli", "approx_band_floor", span("kernel.approx_band_floor")),
            ("orbitforge.cli", "approx_max_fixed_point", span("kernel.approx_max_fixed_point")),
            ("orbitforge.cli", "approx_band_floor_q", span("kernel.approx_q")),
            ("orbitforge.cli", "approx_max_fixed_point_q", span("kernel.approx_q")),
            ("orbitforge.cli", "_bounds_csv", span("cli.bounds.render")),
            ("orbitforge.cli", "max_cycle_scan", lambda fn: t.wrap_iter("modular.max_cycle_scan", fn)),
            ("orbitforge.cli", "read_checkpoint", span("modular.read_checkpoint")),
            # oracle -> classify, kernel, and its own seed iteration
            ("orbitforge.oracle", "classify_power", span("classify.classify_map")),
            ("orbitforge.oracle", "classify_quad", span("classify.classify_map")),
            ("orbitforge.oracle", "iterate_with_escape", span("oracle.iterate_with_escape", self._on_iterate)),
            ("orbitforge.oracle", "escape_bound", span("oracle.escape_bound")),
            ("orbitforge.oracle", "max_fixed_point_floor", span("kernel.max_fixed_point_floor")),
            # the benchmark calls these two library functions directly
            ("orbitforge.classify", "band_width_exceeds_one", span("classify.band_width_exceeds_one")),
            ("orbitforge.classify", "band_integers", span("classify.band_integers")),
            # classify -> kernel
            ("orbitforge.classify", "approx_band_floor", span("kernel.approx_band_floor")),
            ("orbitforge.classify", "max_fixed_point_floor", span("kernel.max_fixed_point_floor")),
            # inside the kernel: the bisection lambdas look these up at call time
            ("orbitforge.kernel", "max_fixed_point_floor", span("kernel.max_fixed_point_floor")),
            ("orbitforge.kernel", "_bisect_decimal", span("kernel.bisect")),
            ("orbitforge.kernel", "frac_side_of_band_floor", side_predicate),
            ("orbitforge.kernel", "frac_side_of_max_fixed_point", side_predicate),
            ("orbitforge.kernel", "compare_to_max_fixed_point_q", side_predicate),
            ("orbitforge.kernel", "compare_to_band_floor_q", side_predicate),
            # modular
            ("orbitforge.modular", "functional_graph", span("modular.functional_graph", self._on_graph)),
            ("orbitforge.modular", "read_checkpoint", span("modular.read_checkpoint")),
        ]


def map_eval_ns(maps, repeats: int = 3) -> tuple[float, int]:
    """ns per PowerMap/QuadMap call over each map's oracle window of seeds.

    Returns (median ns per evaluation, evaluations in one repeat)."""
    if not maps:
        return 0.0, 0
    from orbitforge.oracle import escape_bound

    windows = []
    for the_map in maps:
        bound = escape_bound(the_map).bound
        windows.append((the_map, range(-bound, bound + 1)))
    evals = sum(len(w) for _, w in windows)
    totals = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for the_map, window in windows:
            for x in window:
                the_map(x)
        totals.append(time.perf_counter_ns() - t0)
    return statistics.median(totals) / evals, evals


def layer_metrics(rec: Recorder, observed: dict) -> dict[str, float]:
    """Every per-layer metric that one traced pass determines."""
    t = rec.tracer
    start, end, parent, name = t.start, t.end, t.parent, t.name
    own = self_times(start, end, parent)
    ids = {n: i for i, n in enumerate(t.names)}
    by_name: dict[int, list[int]] = {}
    for i in range(len(t)):
        by_name.setdefault(name[i], []).append(i)

    def spans_of(span_name):
        return by_name.get(ids.get(span_name), [])

    def durs(span_name):
        return [end[i] - start[i] for i in spans_of(span_name)]

    def us(values, q=0.5):
        return percentile(values, q) / 1e3

    m: dict[str, float] = {}
    for span in (
        *APPROX_SPANS,
        "kernel.max_fixed_point_floor",
        "classify.band_integers",
        "classify.classify_map",
        "oracle.escape_bound",
    ):
        d = durs(span)
        m[f"{span}.us_p50"] = us(d)
        m[f"{span}.calls"] = len(d)
    bisects = len(spans_of("kernel.bisect"))
    m["kernel.bisect_steps"] = t.counters["kernel.side_predicate"] / bisects if bisects else 0.0
    m["kernel.bisect.calls"] = bisects

    bwe = spans_of("classify.band_width_exceeds_one")
    bwe_set = set(bwe)
    d = [end[i] - start[i] for i in bwe]
    m["classify.band_width_exceeds_one.us_p50"] = us(d)
    m["classify.band_width_exceeds_one.us_p99"] = us(d, 0.99)
    levels = sum(parent[i] in bwe_set for i in spans_of("kernel.approx_band_floor"))
    m["classify.band_width_exceeds_one.levels_per_call"] = levels / len(bwe) if bwe else 0.0
    m["classify.band_width_exceeds_one.calls"] = len(bwe)

    cc = durs("oracle.cross_check")
    m["oracle.cross_check.us_p50"] = us(cc)
    m["oracle.cross_check.us_p99"] = us(cc, 0.99)
    m["oracle.cross_check.calls"] = len(cc)
    cc_set = set(spans_of("oracle.cross_check"))
    in_cc = [end[i] - start[i] for i in spans_of("classify.classify_map") if parent[i] in cc_set]
    m["classify.share_of_cross_check"] = sum(in_cc) / sum(cc) if cc else 0.0
    m["oracle.seeds"] = rec.seeds
    m["oracle.steps"] = rec.steps
    iterate_self = sum(own[i] for i in spans_of("oracle.iterate_with_escape"))
    m["oracle.ns_per_step"] = iterate_self / rec.steps if rec.steps else 0.0
    m["oracle.useful_ratio"] = rec.useful / rec.seeds if rec.seeds else 0.0
    m["maps.eval_ns"], m["maps.evals"] = map_eval_ns(rec.maps)

    graphs = list(rec.graphs.values())
    large = [(idx, s) for idx, s in graphs if s.modulus >= LARGE_NODES]
    small = [(idx, s) for idx, s in graphs if s.modulus < LARGE_NODES]
    large_nodes = sum(s.modulus for _, s in large)
    m["modular.functional_graph.ns_per_node.large"] = (
        sum(end[i] - start[i] for i, _ in large) / large_nodes if large_nodes else 0.0
    )
    m["modular.functional_graph.nodes.large"] = large_nodes
    m["modular.functional_graph.us_per_call.small"] = us([end[i] - start[i] for i, _ in small])
    m["modular.functional_graph.calls.small"] = len(small)
    nodes = sum(s.modulus for _, s in graphs)
    m["modular.functional_graph.calls"] = len(graphs)
    m["modular.peel_rounds"] = sum(s.max_tail_length for _, s in graphs)
    m["modular.cycle_node_ratio"] = sum(s.nodes_on_cycles for _, s in graphs) / nodes if nodes else 0.0
    m["modular.nodes"] = nodes

    # per CLI invocation (run id): scan time minus functional_graph time
    scan_self: dict[int, int] = {}
    for i in spans_of("modular.max_cycle_scan"):
        scan_self[t.run[i]] = scan_self.get(t.run[i], 0) + own[i]
    m["modular.max_cycle_scan.self_ms"] = percentile(list(scan_self.values()), 0.5) / 1e6
    m["modular.max_cycle_scan.calls"] = len(scan_self)
    ck = observed.get("modular.checkpoint.bytes", [])
    m["modular.checkpoint.bytes"] = statistics.median(ck) if ck else 0
    rc = durs("modular.read_checkpoint")
    m["modular.read_checkpoint.ms"] = percentile(rc, 0.5) / 1e6
    m["modular.read_checkpoint.calls"] = len(rc)

    main_spans = spans_of("cli.main")
    m["cli.main.self_ms"] = percentile([own[i] for i in main_spans], 0.5) / 1e6
    m["cli.main.calls"] = len(main_spans)
    render = durs("cli.bounds.render")
    m["cli.bounds.render_ms"] = percentile(render, 0.5) / 1e6
    m["cli.bounds.render_calls"] = len(render)
    m["trace.spans"] = len(t)
    return m


def traced_run(ops, ctx_for, workers, seconds):
    """Per-layer metrics of ops; returns (metrics, tracer).

    Each op runs untraced with `workers`, then untraced with one worker,
    back to back, so that the machine's drift cancels in the ratios; the
    first round also makes the one traced pass, right after the two
    untraced runs of each op.  Rounds repeat until `seconds` have passed.
    """
    pooled_ctx, serial_ctx = ctx_for(workers), ctx_for(1)
    pooled, serial, traced = Phase(ops), Phase(ops), Phase(ops)
    rec = Recorder()
    hooks = rec.hooks()
    deadline = time.perf_counter() + seconds
    first = True
    while first or time.perf_counter() < deadline:
        for op in ops:
            pooled.sample(op, pooled_ctx)
            serial.sample(op, serial_ctx)
            if first:
                with patched(hooks):
                    traced.sample(op, serial_ctx)
        first = False
    values = layer_metrics(rec, serial_ctx.ledger.observed)
    values["pool.wall_w1_s"] = serial.pass_wall()
    values["pool.wall_w2_s"] = pooled.pass_wall()
    values["pool.speedup_w2"] = serial.pass_wall() / pooled.pass_wall()
    values["trace.wall_s"] = traced.pass_wall()
    values["trace.overhead_frac"] = traced.pass_wall() / serial.pass_wall() - 1
    units = {n: u for n, u, _ in METRICS}
    return {n: (values[n], units[n]) for n, _, _ in METRICS}, rec.tracer
