"""Self-tests of the benchmark itself (not of orbitforge).

    python3 perfbench/selftest.py

Run from the root of a checkout.  They check that a planted wrong
reference is counted as a failure, that self time is computed correctly on
nested and overlapping spans, and that the traced run emits every
per-layer metric of BENCHMARK.json together with its base.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, patched, self_times  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())["digests"]

# per-layer metrics the benchmark's definition names (its base counts are
# checked separately, through layers.BASES)
NAMED = """
kernel.approx_band_floor.us_p50 kernel.approx_max_fixed_point.us_p50
kernel.approx_q.us_p50 kernel.bisect_steps kernel.max_fixed_point_floor.calls
kernel.max_fixed_point_floor.us_p50 classify.band_width_exceeds_one.us_p50
classify.band_width_exceeds_one.us_p99 classify.band_width_exceeds_one.levels_per_call
classify.band_integers.us_p50 classify.classify_map.us_p50 classify.share_of_cross_check
oracle.cross_check.us_p50 oracle.cross_check.us_p99 oracle.seeds oracle.steps
oracle.ns_per_step oracle.useful_ratio oracle.escape_bound.us_p50 maps.eval_ns
modular.functional_graph.ns_per_node.large modular.functional_graph.us_per_call.small
modular.peel_rounds modular.cycle_node_ratio modular.max_cycle_scan.self_ms
modular.checkpoint.bytes modular.read_checkpoint.ms pool.speedup_w2 cli.main.self_ms
cli.bounds.render_ms trace.overhead_frac
""".split()


WORK = HERE.parent / ".perfbench_work"


def workdir():
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


def run_ops(ops, reference, workers=1):
    ledger = workloads.Ledger(reference)
    with workdir() as tmp:
        ctx = workloads.Context(workers, ledger, Path(tmp))
        for op in ops:
            op.run(ctx)
    return ledger


class PlantedReference(unittest.TestCase):
    def test_wrong_digest_counts_as_failure(self):
        variant, rng = workloads.variant_of("modscan-many", 7)
        ops = workloads.WORKLOADS["modscan-many"].build(variant, rng)
        self.assertEqual(run_ops(ops, REFERENCE).failed, 0)
        (key,) = {workloads.cli_key(a) for op in ops for a in op.reference_argvs}
        planted = dict(REFERENCE, **{key: "0" * 64})
        ledger = run_ops(ops, planted)
        self.assertEqual((ledger.attempted, ledger.failed), (1, 1))
        self.assertGreater(ledger.failed / ledger.attempted, 0)

    def test_missing_digest_and_bad_exit_count_as_failures(self):
        ops = [
            workloads.cli_op("x", ["oracle", "power", "--m", "2", "--k=2..9", "--format", "json"], 8),
            workloads.cli_op("y", ["modscan", "power", "2", "1", "--M", "1..5"], 5),  # exit 2
        ]
        ledger = run_ops(ops, REFERENCE)
        self.assertEqual((ledger.attempted, ledger.failed), (2, 2))
        self.assertIn("no reference digest", ledger.problems[0])
        self.assertIn("exit 2", ledger.problems[1])

    def test_semantic_check_catches_a_wrong_summary(self):
        # the AC8 check rejects a summary even when the digest was planted to match it
        argv = ["modscan", "power", "2", "1", "--M", "999999,1000000"]
        key = workloads.cli_key(argv)
        fake = f"{workloads.of_cli.MODSCAN_CSV_HEADER}\n999999,1,1,1,0\n1000000,6250,3,6254,7\n"
        check = workloads._large_semantic("power_2_1", [999999, 1000000])
        self.assertIn("AC8", check(fake.encode()))
        ledger = workloads.Ledger({key: workloads.digest(fake.encode())})
        self.assertIsNone(ledger.matches(key, fake.encode()))


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        # 0: [0, 100]; 1: [10, 30] and 2: [20, 50] overlap; 3: [90, 120] runs
        # past its parent; 4: [12, 18] is a grandchild under 1
        start = array("q", [0, 10, 20, 90, 12])
        end = array("q", [100, 30, 50, 120, 18])
        parent = array("q", [-1, 0, 0, 0, 1])
        own = self_times(start, end, parent)
        self.assertEqual(own[0], 100 - (40 + 10))  # covered: [10, 50] and [90, 100]
        self.assertEqual(own[1], 20 - 6)
        self.assertEqual(own[2], 30)
        self.assertEqual(own[3], 30)
        self.assertEqual(own[4], 6)

    def test_tracer_links_parents_and_runs(self):
        t = Tracer()
        inner = t.wrap("inner", lambda x: x + 1)
        outer = t.wrap("outer", lambda x: inner(inner(x)))
        self.assertEqual(outer(1), 3)
        self.assertEqual(outer(5), 7)
        names = [t.names[i] for i in t.name]
        self.assertEqual(names, ["outer", "inner", "inner"] * 2)
        self.assertEqual(list(t.parent), [-1, 0, 0, -1, 3, 3])
        self.assertEqual(list(t.run), [1, 1, 1, 2, 2, 2])
        own = self_times(t.start, t.end, t.parent)
        for i in (0, 3):
            kids = sum(t.end[j] - t.start[j] for j in (i + 1, i + 2))
            self.assertEqual(own[i], t.end[i] - t.start[i] - kids)

    def test_generator_spans_exclude_the_consumer(self):
        t = Tracer()
        gen = t.wrap_iter("gen", lambda n: iter(range(n)))
        self.assertEqual(list(gen(3)), [0, 1, 2])
        self.assertEqual(len(t), 4)  # three items and the final StopIteration
        self.assertTrue(all(e >= s for s, e in zip(t.start, t.end)))

    def test_patched_restores_and_refuses_missing(self):
        import orbitforge.cli as cli

        original = cli.main
        with patched([("orbitforge.cli", "main", lambda fn: "x")]):
            self.assertEqual(cli.main, "x")
        self.assertIs(cli.main, original)
        hooks = [("orbitforge.cli", "main", lambda fn: "x"), ("orbitforge.cli", "nope", lambda fn: fn)]
        with self.assertRaisesRegex(LookupError, "orbitforge.cli.nope"):
            with patched(hooks):
                pass
        self.assertIs(cli.main, original)


class PerLayerMetrics(unittest.TestCase):
    def test_definition_lists_every_metric(self):
        definition = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = [(m["name"], m["unit"], m["better"]) for m in definition["per_layer"]]
        self.assertEqual(declared, list(layers.METRICS))
        emitted = {n for n, _, _ in layers.METRICS}
        self.assertLessEqual(set(NAMED), emitted)
        for metric, bases in layers.BASES.items():
            self.assertIn(metric, emitted)
            self.assertLessEqual(set(bases), emitted, metric)
        for name, unit, _ in layers.METRICS:
            if unit in ("us", "ns", "ms", "ratio", "x") or name == "kernel.bisect_steps":
                self.assertIn(name, layers.BASES, f"{name} has no base")

    def test_traced_run_emits_every_metric_with_its_base(self):
        # the warm-up operations of all four workloads, plus one modulus at
        # the large-graph threshold, reach every layer
        ops = [op for w in workloads.WORKLOADS.values() for op in w.warmup()]
        large = ["modscan", "power", "2", "1", "--M", str(layers.LARGE_NODES)]
        ops.append(workloads.cli_op("large", large, 1))
        ops = [workloads.Op(f"{i}", op.items, op.run) for i, op in enumerate(ops)]
        ledger = workloads.Ledger(REFERENCE)
        with workdir() as tmp:
            metrics, tracer = layers.traced_run(
                ops, lambda w: workloads.Context(w, ledger, Path(tmp)), 2, 0.0
            )
        self.assertEqual(list(metrics), [n for n, _, _ in layers.METRICS])
        for name, (value, unit) in metrics.items():
            self.assertIsInstance(value, (int, float), name)
        for metric, bases in layers.BASES.items():
            if metrics[metric][0]:
                self.assertTrue(all(metrics[b][0] for b in bases), f"{metric} without base")
        zero = [n for n in NAMED if not metrics[n][0] and n != "trace.overhead_frac"]
        self.assertEqual(zero, [], "layers not reached by the combined warm-up")
        self.assertEqual(metrics["classify.band_width_exceeds_one.levels_per_call"][0], 1.0)
        self.assertGreater(len(tracer), 0)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, w in workloads.WORKLOADS.items():
            a = [(op.name, op.items, op.reference_argvs) for op in w.build(*workloads.variant_of(name, 5))]
            b = [(op.name, op.items, op.reference_argvs) for op in w.build(*workloads.variant_of(name, 5))]
            self.assertEqual(a, b, name)

    def test_every_variant_has_references(self):
        for name, w in workloads.WORKLOADS.items():
            for variant in range(workloads.VARIANTS):
                for op in w.build(variant, random.Random(variant)):
                    for argv in op.reference_argvs:
                        self.assertIn(workloads.cli_key(argv), REFERENCE, name)


if __name__ == "__main__":
    unittest.main()
