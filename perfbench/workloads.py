"""Workloads of the orbitforge benchmark: seeded inputs, operations, checks.

A workload is a list of operations.  Each operation drives orbitforge
through `orbitforge.cli.main` or a public library function, checks what
came back, and reports how many work items it covered.  Inputs depend only
on the workload's variant (0..VARIANTS-1) and, for the resume midpoint, on
a seeded random stream; the package sees nothing but the generated argv.

CLI output is checked against SHA-256 digests of the stdout bytes produced
by the source tree the benchmark was introduced on (reference.json, written
by make_reference.py), and
where the answer is known independently, against that answer too: zero
oracle disagreements, the AC8 summary of x^2 - 1 mod 10^6, the AC6 band
facts, and the permutation property of 2x^2 + x mod 2^k.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import orbitforge.classify as of_classify
import orbitforge.cli as of_cli

VARIANTS = 16

# summary of x^2 - 1 mod 10^6 fixed by acceptance criterion AC8:
# (max_cycle_length, cycle_count, nodes_on_cycles, max_tail_length)
AC8_MODULUS = 10**6
AC8_SUMMARY = (6250, 3, 6254, 6)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Ledger:
    """Correctness ledger of one run: every checked operation lands here."""

    reference: dict[str, str]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    observed: dict[str, list[float]] = field(default_factory=dict)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def observe(self, name: str, value: float) -> None:
        self.observed.setdefault(name, []).append(value)

    def matches(self, key: str, data: bytes) -> str | None:
        """None when data has the reference digest for key, else why not."""
        expected = self.reference.get(key)
        if expected is None:
            return "no reference digest"
        if digest(data) != expected:
            return "output differs from the reference bytes"
        return None


@dataclass
class Context:
    workers: int
    ledger: Ledger
    workdir: Path


@dataclass(frozen=True)
class Op:
    """One timed, checked operation.

    reference_argvs lists the CLI invocations (without --workers) whose
    stdout digests the check needs; make_reference.py runs exactly these.
    """

    name: str
    items: int
    run: Callable[[Context], None]
    reference_argvs: tuple[tuple[str, ...], ...] = ()


def invoke(argv: list[str]) -> tuple[int, bytes, str]:
    """Run the CLI in-process; return exit code, stdout bytes, stderr text.

    The entry point is looked up on the module at call time, so the traced
    run's wrapper on orbitforge.cli.main sees every invocation.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = of_cli.main(argv)
    return rc, out.getvalue().encode("utf-8"), err.getvalue()


def cli_key(argv) -> str:
    return " ".join(argv)


def cli_op(name: str, argv: list[str], items: int, semantic=None) -> Op:
    """Op that runs argv with --workers, compares stdout with its reference
    digest, then applies semantic(stdout) -> problem or None."""
    key = cli_key(argv)

    def run(ctx: Context) -> None:
        rc, out, err = invoke(argv + ["--workers", str(ctx.workers)])
        if rc != 0:
            problem = f"exit {rc}: {err.strip()[:200]}"
        else:
            problem = ctx.ledger.matches(key, out)
            if problem is None and semantic is not None:
                problem = semantic(out)
        ctx.ledger.record(problem is None, f"{key}: {problem}")

    return Op(name, items, run, (tuple(argv),))


# ====================================================================
# oracle-gate: the AC10 CI gate, on seeded windows of its four grids
# ====================================================================

# Window sizes (maps per grid) are a fraction of AC10's; offsets stay small
# next to the window so that the cost per map barely moves between
# variants.  Each window is cut into chunks of 40-70 ms, each its own
# operation, for the reason given at BOUNDS_CHUNK below.
ORACLE_M2 = (3000, 1000, 4, 100)  # k from 3000 + 4*v, 1000 shifts (AC10: -10..5000)
ORACLE_EVEN = (6000, 1500, 8, 250)  # m = 4,6,8, k from 6000 + 8*v (AC10: -10..10000)
ORACLE_ODD = (-700, 1401, 10, 235)  # m = 3,5,7, k from -700 + 10*v (AC10: -1000..1000)
ORACLE_QUAD = (-60, 40, 1, 10)  # a=-3..3, b=-6..6, c from -60 + v (AC10: -60..60)


def _oracle_semantic(expected_maps: int):
    def check(out: bytes) -> str | None:
        payload = json.loads(out)
        if payload["disagreements"]:
            return f"{len(payload['disagreements'])} oracle disagreements"
        if not payload["checked"] == payload["agree"] == expected_maps:
            return f"checked {payload['checked']} maps, expected {expected_maps}"
        return None

    return check


def _windows(grid, variant: int):
    """(first, last) of each chunk of the variant's window of grid."""
    base, width, step, chunk = grid
    lo = base + step * variant
    return [(a, min(a + chunk, lo + width) - 1) for a in range(lo, lo + width, chunk)]


def oracle_gate(variant: int, rng: random.Random) -> list[Op]:
    grids = []
    for a, b in _windows(ORACLE_M2, variant):
        grids.append((f"m2_{a}", ["power", "--m", "2", f"--k={a}..{b}"], b - a + 1))
    for a, b in _windows(ORACLE_EVEN, variant):
        grids.append((f"m468_{a}", ["power", "--m", "4,6,8", f"--k={a}..{b}"], 3 * (b - a + 1)))
    for a, b in _windows(ORACLE_ODD, variant):
        grids.append((f"m357_{a}", ["power", "--m", "3,5,7", f"--k={a}..{b}"], 3 * (b - a + 1)))
    for a, b in _windows(ORACLE_QUAD, variant):
        quad = ["quad", "--a=-3..3", "--b=-6..6", f"--c={a}..{b}"]
        grids.append((f"quad_{a}", quad, 6 * 13 * (b - a + 1)))
    return [
        cli_op(name, ["oracle", *args, "--format", "json"], maps, _oracle_semantic(maps))
        for name, args, maps in grids
    ]


def oracle_warmup() -> list[Op]:
    return [
        cli_op("warm", ["oracle", "power", "--m", "2", "--k=2..60", "--format", "json"], 59),
        cli_op("warm", ["oracle", "quad", "--a=1", "--b=0..1", "--c=-5..5", "--format", "json"], 22),
    ]


# ====================================================================
# band-certify: certified decimals (bounds CSV) and the AC6 band path
# ====================================================================

BOUNDS_K = (30000, 150, 60)  # rows from 30000 + 60*v, 150 shifts per family
BAND_K = (50000, 1000, 500)  # AC6 path: k from 50000 + 500*v, 1000 shifts
BOUNDS_DIGITS = 12
# Each range is cut into chunks of 10-90 ms, each its own operation.  Every
# workload runs in one process, and a core of the reference machine
# switches between two speeds (about 1.7x apart) for seconds at a time;
# small operations are each repeated at many moments of a run, and on each
# core in turn (measure.Phase), so the median repeat of each reads the
# code's cost rather than a core's state.
BOUNDS_CHUNK = 15
BAND_CHUNK = 100


def _bounds_semantic(rows: int):
    def check(out: bytes) -> str | None:
        lines = out.decode().splitlines()
        if len(lines) != rows + 1 or lines[0] != of_cli.BOUNDS_CSV_HEADER:
            return f"{len(lines) - 1} CSV rows, expected {rows}"
        return None

    return check


def _band_width_op(ks: range, name: str = "band_width") -> Op:
    def run(ctx: Context) -> None:
        for k in ks:
            ok = of_classify.band_width_exceeds_one(k) is True
            ctx.ledger.record(ok, f"band_width_exceeds_one({k}) is not True")

    return Op(name, len(ks), run)


def _band_integers_op(ks: range) -> Op:
    # AC6: the band [floor, fix] holds 3 integers at k = 2, 2 at the
    # cycle-bearing (pronic and pronic-plus-one) shifts, 1 otherwise; its
    # top is floor(fix), the largest n with n^2 - n - k <= 0
    cycle_bearing = set()
    j = 0
    while j * (j + 1) <= ks.stop:
        cycle_bearing.update((j * (j + 1), j * (j + 1) + 1))
        j += 1

    def run(ctx: Context) -> None:
        for k in ks:
            got = of_classify.band_integers(2, k)
            want = 3 if k == 2 else 2 if k in cycle_bearing else 1
            top = got[-1] if got else -1
            ok = (
                len(got) == want
                and got == list(range(got[0], top + 1))
                and top * top - top - k <= 0 < (top + 1) * top - k
            )
            ctx.ledger.record(ok, f"band_integers(2, {k}) = {got}")

    return Op("band_integers", len(ks), run)


def band_certify(variant: int, rng: random.Random) -> list[Op]:
    k0, rows, step = BOUNDS_K
    lo = k0 + step * variant
    b0, count, bstep = BAND_K
    ks = range(b0 + bstep * variant, b0 + bstep * variant + count)
    ops = []
    for start in range(lo, lo + rows, BOUNDS_CHUNK):
        plain = [
            "bounds", "--k", f"{start}..{start + BOUNDS_CHUNK - 1}",
            "--digits", str(BOUNDS_DIGITS), "--format", "csv",
        ]
        check = _bounds_semantic(BOUNDS_CHUNK)
        ops.append(cli_op(f"bounds_power_{start}", plain, BOUNDS_CHUNK, check))
        ops.append(cli_op(f"bounds_odd_linear_{start}", plain + ["--odd-linear"], BOUNDS_CHUNK, check))
    for i in range(0, count, BAND_CHUNK):
        ops.append(_band_width_op(ks[i : i + BAND_CHUNK], f"band_width_{ks[i]}"))
    ops.append(_band_integers_op(ks))
    return ops


def band_warmup() -> list[Op]:
    plain = ["bounds", "--k", "2..6", "--digits", str(BOUNDS_DIGITS), "--format", "csv"]
    return [
        cli_op("warm", plain, 5),
        cli_op("warm", plain + ["--odd-linear"], 5),
        _band_width_op(range(2, 30)),
        _band_integers_op(range(2, 30)),
    ]


# ====================================================================
# modscan-large: one big modulus per map shape
# ====================================================================


def _is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_from(lo: int, count: int) -> list[int]:
    out, n = [], lo
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 1
    return out


# Primes all give deep, irregular trees, at a cost per node that varies
# from prime to prime; the power-of-two moduli give the two extreme shapes
# (every node on a cycle for 2x^2 + x, one fixed point under k-deep tails
# for 4x^2 + 2x mod 2^k).  Each modulus is one operation, of 0.05-0.2 s
# besides the AC8 anchor at 10^6, so that a run repeats it many times; the
# prime shapes take two primes each, so that their cost varies less
# between variants.
LARGE_PRIMES_FROM = 2**17
LARGE_SHAPES = (
    # (name, map argv, moduli; None takes the next prime slot)
    ("power_2_1", ["power", "2", "1"], (AC8_MODULUS,)),
    ("quad_1_1_-2", ["quad", "1", "1", "-2"], (None, None)),
    ("quad_2_1_0", ["quad", "2", "1", "0"], (2**18,)),
    ("quad_4_2_0", ["quad", "4", "2", "0"], (2**18,)),
    ("power_3_2", ["power", "3", "2"], (None, None)),
)
PRIME_SLOTS = 4


def _large_semantic(shape: str, moduli: list[int]):
    def check(out: bytes) -> str | None:
        lines = out.decode().splitlines()
        if lines[0] != of_cli.MODSCAN_CSV_HEADER:
            return "bad CSV header"
        rows = [tuple(int(f) for f in line.split(",")) for line in lines[1:]]
        if [r[0] for r in rows] != moduli:
            return f"scanned moduli {[r[0] for r in rows]}, expected {moduli}"
        for modulus, max_cycle, cycles, on_cycles, max_tail in rows:
            if not 1 <= max_cycle <= on_cycles <= modulus or cycles < 1:
                return f"inconsistent summary at M={modulus}"
            if shape == "power_2_1" and modulus == AC8_MODULUS:
                if (max_cycle, cycles, on_cycles, max_tail) != AC8_SUMMARY:
                    return f"AC8 summary differs: {(max_cycle, cycles, on_cycles, max_tail)}"
            if shape == "quad_2_1_0" and (on_cycles, max_tail) != (modulus, 0):
                return f"2x^2 + x is not a permutation mod {modulus}"
        return None

    return check


def modscan_large(variant: int, rng: random.Random) -> list[Op]:
    # prime slot s takes the prime at index variant + VARIANTS*s, so no two
    # slots share a modulus
    primes = iter(primes_from(LARGE_PRIMES_FROM, VARIANTS * PRIME_SLOTS)[variant::VARIANTS])
    ops = []
    for shape, map_argv, moduli in LARGE_SHAPES:
        for modulus in moduli:
            modulus = modulus or next(primes)
            argv = ["modscan", *map_argv, "--M", str(modulus)]
            ops.append(cli_op(f"{shape}_{modulus}", argv, modulus, _large_semantic(shape, [modulus])))
    return ops


def large_warmup() -> list[Op]:
    return [cli_op("warm", ["modscan", "power", "2", "1", "--M", "5000,5001"], 2)]


# ====================================================================
# modscan-many: many small moduli, checkpoint, interrupt and resume
# ====================================================================

MANY_MAP = ["power", "2", "1"]
MANY_RANGE = (2, 1200)


def _resume_op(lo: int, hi: int, mid: int, name: str = "resume") -> Op:
    """Scan lo..mid into a CSV with a checkpoint, then resume to hi; the CSV
    must equal the bytes of one uninterrupted scan of lo..hi."""
    full = ["modscan", *MANY_MAP, "--M", f"{lo}..{hi}"]
    key = cli_key(full)

    def run(ctx: Context) -> None:
        out = ctx.workdir / f"{name}.csv"
        ck = ctx.workdir / f"{name}.ck"
        for path in (out, ck):
            path.unlink(missing_ok=True)
        common = ["--out", str(out), "--checkpoint", str(ck), "--workers", str(ctx.workers)]
        problem = None
        for argv in (["modscan", *MANY_MAP, "--M", f"{lo}..{mid}"], full):
            rc, _, err = invoke(argv + common)
            if rc != 0:
                problem = f"exit {rc}: {err.strip()[:200]}"
                break
        if problem is None:
            problem = ctx.ledger.matches(key, out.read_bytes())
            ctx.ledger.observe("modular.checkpoint.bytes", ck.stat().st_size)
        ctx.ledger.record(problem is None, f"{key} resumed after {mid}: {problem}")

    return Op(name, hi - lo + 1, run, (tuple(full),))


def modscan_many(variant: int, rng: random.Random) -> list[Op]:
    lo, hi = MANY_RANGE
    return [_resume_op(lo, hi, rng.randrange(lo + 1, hi))]


def many_warmup() -> list[Op]:
    return [_resume_op(2, 60, 30, name="warm")]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, random.Random], list[Op]]
    warmup: Callable[[], list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle-gate",
            "the AC10 CI gate (oracle --format json) on seeded windows of its four grids; time is "
            "seed iteration, kernel and modular are barely used",
            oracle_gate,
            oracle_warmup,
        ),
        Workload(
            "band-certify",
            "bounds CSV in both families plus the AC6 band checks; Fraction bisection in the "
            "kernel, bypasses oracle and modular",
            band_certify,
            band_warmup,
        ),
        Workload(
            "modscan-large",
            "modscan of one or two moduli of 1.3*10^5..10^6 nodes per map shape; the "
            "functional_graph peel and cycle walk",
            modscan_large,
            large_warmup,
        ),
        Workload(
            "modscan-many",
            "modscan of 1199 small moduli, interrupted at a seeded midpoint and resumed; "
            "per-call overhead, checkpoint I/O, read_checkpoint",
            modscan_many,
            many_warmup,
        ),
    )
}


def variant_of(workload: str, seed: int) -> tuple[int, random.Random]:
    """The seed's variant of a workload and the random stream for the rest."""
    rng = random.Random(f"{workload}:{seed}")
    return rng.randrange(VARIANTS), rng
