"""Wall and CPU time of benchmark operations, and peak memory."""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import resource
import statistics
import subprocess
import sys
import time


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Highest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
_turns = itertools.count()


@contextlib.contextmanager
def pinned_in_turn(pin: bool = True):
    """Run the block pinned to the next allowed CPU in turn.

    A core of the reference machine switches between two speeds for
    seconds at a time; taking the cores in turn keeps one slow core from
    holding every repeat.  Children started in the block inherit the
    pinning, so a block that starts worker processes passes pin=False.
    """
    if not pin or len(_CPUS) < 2:
        yield
        return
    os.sched_setaffinity(0, {_CPUS[next(_turns) % len(_CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, _CPUS)


# Each core of the 2-vCPU reference machine changes speed by up to 1.7x for
# seconds at a time, and the shared host's load moves whole runs by 10-20%,
# by more for code that waits on memory; neither is under the benchmark's
# control.  So every timed block is bracketed by a fixed calibration: an
# interpreter loop, which follows the core's speed, and a walk through one
# random cycle over a list of CHASE_NODES ints (about 40 MiB, like the
# tables of modscan at 10^6), which follows the wait for memory.  A block's
# time is reported at the speed at which the calibration takes CAL_REF_S:
# time * CAL_REF_S / calibration time.  CAL_REF_S is the calibration's
# median time on the reference machine (Intel Xeon, 2 vCPUs, Python 3.11),
# so there a reported time is close to the raw one.
CAL_LOOPS = 16_000
CHASE_NODES = 1 << 20
CHASE_STEPS = 4_000
CAL_REF_S = 3.2e-3


def _serve_calibration() -> None:
    """Helper process: build the cycle, then time one calibration per line
    read from stdin and write the seconds to stdout, until end of input."""
    order = list(range(CHASE_NODES))
    random.Random(0).shuffle(order)
    successor = [0] * CHASE_NODES
    for a, b in zip(order, order[1:] + order[:1]):
        successor[a] = b
    del order
    # The walk goes on where it stopped.  One that restarted at node 0 would
    # revisit the same nodes and time how much of them the operation just
    # run had evicted from the caches: 1.4 ms idle against 3.5 ms after an
    # operation, whatever the machine's state.
    node = 0
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    for _ in sys.stdin:
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        for _ in range(CHASE_STEPS):
            node = successor[node]
        out.write(f"{time.perf_counter() - t0!r}\n")
        out.flush()


class Calibration:
    """Times the calibration on the caller's CPUs, in a helper process, so
    that its list counts in neither the caller's memory nor its CPU time.
    Use as a context manager; leaving it stops the helper."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if self._proc.stdout.readline() != b"ready\n":
            self.close()
            raise RuntimeError("calibration helper did not start")

    def seconds(self) -> float:
        os.sched_setaffinity(self._proc.pid, os.sched_getaffinity(0))
        self._proc.stdin.write(b"\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Calibration":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    return seconds * CAL_REF_S / calibration_s


class Phase:
    """Per-operation wall and CPU samples of one measured phase and, given a
    Calibration, the calibration's mean time around each."""

    def __init__(self, ops, calibration: Calibration | None = None) -> None:
        self.ops = ops
        self.calibration = calibration
        self.wall = {op.name: [] for op in ops}
        self.cpu = {op.name: [] for op in ops}
        self.calibration_s = {op.name: [] for op in ops}
        self._next = 0  # index of the op the next run() starts with

    def sample(self, op, ctx) -> None:
        """Run op once and record its wall and CPU time; with one worker,
        which starts no worker process, pinned to the next CPU in turn."""
        with pinned_in_turn(ctx.workers == 1):
            before = self.calibration.seconds() if self.calibration else None
            cpu0, t0 = _cpu_now(), time.perf_counter()
            op.run(ctx)
            t1, cpu1 = time.perf_counter(), _cpu_now()
            if self.calibration:
                self.calibration_s[op.name].append((before + self.calibration.seconds()) / 2)
        self.wall[op.name].append(t1 - t0)
        self.cpu[op.name].append(cpu1 - cpu0)

    def run(self, ctx, budget_s: float) -> None:
        """Cycle through the ops, from where the last call stopped, until
        budget_s has passed and every op ran at least once."""
        deadline = time.perf_counter() + budget_s
        while True:
            op = self.ops[self._next % len(self.ops)]
            if self.wall[op.name] and time.perf_counter() >= deadline:
                return
            self.sample(op, ctx)
            self._next += 1

    # A pass is the sum of each op's median repeat.  Each repeat of an op
    # with one worker runs on the next CPU in turn and the repeats are
    # spread over the whole run, so the median does not hang on one core or
    # one moment; scaling each repeat by the calibration beside it takes out
    # the speed the core had at that moment.

    def _pass(self, samples, raw: bool) -> float:
        total = 0.0
        for name, values in samples.items():
            if self.calibration and not raw:
                values = map(at_reference_speed, values, self.calibration_s[name])
            total += statistics.median(values)
        return total

    def pass_wall(self, raw: bool = False) -> float:
        """Wall time of one pass over the ops: the sum of per-op medians, at
        the reference speed when the phase has a calibration."""
        return self._pass(self.wall, raw)

    def pass_cpu(self, raw: bool = False) -> float:
        return self._pass(self.cpu, raw)

    def pass_items(self) -> int:
        return sum(op.items for op in self.ops)


if __name__ == "__main__":
    _serve_calibration()
