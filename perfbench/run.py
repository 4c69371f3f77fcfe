"""orbitforge benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, measured with
1 worker and no tracing, each time given at the reference core speed
(measure.CAL_REF_S).  With --trace 1 they are the per-layer ones: the
run times the workload untraced with 2 workers and with 1 worker, and makes
one traced pass with 1 worker (spans do not cross the process pool); it
writes the spans to .perfbench_work/.  Lines before the last carry
provenance and the failure ratio.  Exit status is 0 when the run completed (even with
failed operations, which `correct` and `failed` report), 2 when the
package, a reference or (with --trace 1) a traced function is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# The end-to-end runs use one worker: an op with a pool of two waits for the
# slower core of the 2-vCPU reference machine, whose cores each switch
# between two speeds, and cannot be pinned (see measure.pinned_in_turn).
# The pool is measured by the traced run, as pool.speedup_w2 at POOL_WORKERS.
WORKERS = 1
POOL_WORKERS = 2  # nproc of the reference machine
SETUP_REPEATS = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ====================================================================
# measurement
# ====================================================================


def fresh_import() -> None:
    """Import orbitforge.cli in a fresh interpreter, as a user's first run does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import orbitforge.cli"], cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL,
    )


# ====================================================================
# provenance
# ====================================================================


def provenance(args, variant, workers) -> dict:
    import numpy

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "orbitforge").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


# ====================================================================
# main
# ====================================================================


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "orbitforge" / "cli.py").is_file():
        return fail(f"no orbitforge package under {SRC}; run from the root of a checkout")
    if not REFERENCE.is_file():
        return fail(f"missing {REFERENCE}; run perfbench/make_reference.py")
    sys.path.insert(0, str(SRC))
    import orbitforge

    if Path(orbitforge.__file__).resolve().parent != (SRC / "orbitforge").resolve():
        return fail(f"imported orbitforge from {orbitforge.__file__}, not from {SRC}")
    import layers
    import workloads
    from measure import Calibration, Phase, at_reference_speed, peak_rss_mib, pinned_in_turn

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    reference = json.loads(REFERENCE.read_text())["digests"]
    ledger = workloads.Ledger(reference)
    scratch = WORK / "scratch" / args.workload  # CSV and checkpoint files of modscan
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)

    def ctx_for(workers):
        return workloads.Context(workers, ledger, scratch)

    def set_up(calibration):
        """Fresh-interpreter import, input generation, and a warm-up of tiny
        operations of the same shapes (imports, first allocations) checked
        into a throwaway ledger, pinned to the next CPU in turn.  Returns
        its raw seconds, the same at the reference speed, ops and variant."""
        with pinned_in_turn():
            before = calibration.seconds()
            t0 = time.perf_counter()
            fresh_import()
            variant, rng = workloads.variant_of(workload.name, args.seed)
            ops = workload.build(variant, rng)
            warm = workloads.Context(WORKERS, workloads.Ledger({}), scratch)
            for op in workload.warmup():
                op.run(warm)
            seconds = time.perf_counter() - t0
            calibration_s = (before + calibration.seconds()) / 2
        return seconds, at_reference_speed(seconds, calibration_s), ops, variant

    if args.trace == 0:
        # The set-ups are spread over the measured time, one after each
        # ninth of it, so that their median does not hang on the machine's
        # state during a few seconds.  Peak memory is read before the
        # calibration helper ends, so that its list is not counted.
        with Calibration() as calibration:
            raw_s, seconds, ops, variant = set_up(calibration)
            setups, raw_setups = [seconds], [raw_s]
            phase = Phase(ops, calibration)
            ctx = ctx_for(WORKERS)
            for _ in range(SETUP_REPEATS - 1):
                phase.run(ctx, args.seconds / SETUP_REPEATS)
                raw_s, seconds = set_up(calibration)[:2]
                setups.append(seconds)
                raw_setups.append(raw_s)
            phase.run(ctx, args.seconds / SETUP_REPEATS)
            peak_mib = peak_rss_mib()
        wall = phase.pass_wall()
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (phase.pass_cpu(), "s"),
            "items_per_s": (phase.pass_items() / wall, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (peak_mib, "MiB"),
        }
        raw = {
            "wall_s": phase.pass_wall(raw=True),
            "cpu_s": phase.pass_cpu(raw=True),
            "setup_s": statistics.median(raw_setups),
        }
        workers = WORKERS
        samples = {"wall_s": phase.wall, "cpu_s": phase.cpu, "calibration_s": phase.calibration_s}
    else:
        with Calibration() as calibration:
            raw_s, seconds, ops, variant = set_up(calibration)
        setups, raw_setups = [seconds], [raw_s]
        raw = {}
        try:
            metrics, spans = layers.traced_run(ops, ctx_for, POOL_WORKERS, args.seconds)
        except LookupError as exc:
            return fail(str(exc))
        spans.save(WORK / f"spans-{args.workload}.npz")
        workers = 1
        samples = {}

    info = provenance(args, variant, workers)
    failed_frac = ledger.failed / max(ledger.attempted, 1)
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(
        result, provenance=info, failed_frac=failed_frac, problems=ledger.problems,
        raw_seconds=raw, setup_samples_s=setups, raw_setup_samples_s=raw_setups,
        op_samples=samples,
    )
    (WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print("perfbench provenance: " + json.dumps(info, sort_keys=True))
    if raw:
        print("perfbench raw seconds (not at the reference speed): " + json.dumps(raw))
    print(f"perfbench failed_frac: {failed_frac} ({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        print(f"perfbench failure: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
