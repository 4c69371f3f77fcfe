"""Command-line interface.

Subcommands
-----------
classify      exact periodic-orbit answer for one map
orbit         follow one seed until repeat, certified escape, or cap
oracle        brute-force cross-check of the classifier over parameter grids
bounds        landmark curves (certified decimals) over a shift range
modscan       cycle survey over Z_M ranges, checkpoint-resumable CSV
latticecheck  does a rational polynomial map step*Z into itself?
conjugate     normal-form reduction of an integer quadratic

Exit codes: 0 success (and agreement), 1 verified disagreement (anomaly),
2 usage error, 3 I/O or checkpoint failure.  Every oracle disagreement names
the one-map oracle command that reproduces it.  oracle refuses a grid with
any map whose escape window holds more than oracle.WINDOW_LIMIT seeds
(exit 2) before it builds anything.

Each subcommand declares the options it reads, so argparse refuses the rest
with exit 2, and oracle refuses the other family's grids.  --format lists
exactly the formats a subcommand renders, the first being the default:
bounds takes table, json, csv or svg, modscan only csv, every other
subcommand table or json.  --cap belongs to orbit alone.  Every subcommand
takes --out (write there instead of stdout).  oracle, bounds and modscan
take --workers N and refuse N < 1 (exit 2), but no handler reads it: every
command runs in one process, and the option stays only because perfbench
passes it to every command it runs.

Grids accept comma lists and inclusive ranges: "4,6,8", "-10..5000", "1,3..5".
All integer output is full decimal, never scientific notation.

modscan owns the resume protocol and modular the checkpoint format.  modscan
writes and flushes each CSV row before appending that modulus's checkpoint
line, so no checkpointed modulus is ever missing from the CSV.  A resumed
modscan (same --out and --checkpoint) reads the checkpoint once, cuts its
torn last line and cuts the CSV back to the rows the checkpoint covers, so it
ends with the bytes of an uninterrupted run.  A CSV that no interrupted run
of that scan could have left is refused (exit 3) before either file changes;
a checkpoint without a CSV to extend starts the scan afresh.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .classify import classify_power, classify_quad
from .kernel import (
    DecimalApprox,
    approx_band_floor,
    approx_band_floor_q,
    approx_max_fixed_point,
    approx_max_fixed_point_q,
    band_floor_is_real_q,
    format_decimal,
)
from .maps import PowerMap, QuadMap, RationalPoly, conjugacy_of_quad, lattice_check, parse_rational
from .modular import (
    CheckpointError,
    checkpoint_line,
    map_params,
    max_cycle_scan,
    read_checkpoint,
)
from .oracle import cross_check, escape_bound, iterate_with_escape, window_cycles

__all__ = ["main", "entrypoint", "parse_grid", "render_classification_json"]

MODSCAN_CSV_HEADER = "modulus,max_cycle_length,cycle_count,nodes_on_cycles,max_tail_length"
BOUNDS_CSV_HEADER = "k,max_fixed_point,band_floor,max_fixed_point_minus_1,marked,witness_j"


def parse_grid(text: str) -> list[int]:
    """Parse '2', '4,6,8', '-10..5000', or mixes into an integer list."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty range: {part!r}")
            values.extend(range(lo, hi + 1))
        elif part:
            values.append(int(part))
    if not values:
        raise ValueError(f"empty grid: {text!r}")
    return values


def _grid(text: str) -> list[int]:
    try:
        return parse_grid(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_map(family: str, params: list[int]):
    if family == "power":
        if len(params) != 2:
            raise ValueError("power maps take two integers: degree shift")
        return PowerMap(params[0], params[1])
    if len(params) != 3:
        raise ValueError("quad maps take three integers: a b c")
    return QuadMap(params[0], params[1], params[2])


def _worker_count(text: str) -> int:
    """Check a --workers value, which no handler reads (see the module
    docstring)."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return count


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


# ====================================================================
# renderers
# ====================================================================


def _map_payload(the_map) -> dict:
    if isinstance(the_map, PowerMap):
        return {"family": "power", "degree": the_map.degree, "shift": the_map.shift}
    return {"family": "quad", "a": the_map.a, "b": the_map.b, "c": the_map.c}


def _map_label(the_map) -> str:
    if isinstance(the_map, PowerMap):
        return f"power degree={the_map.degree} shift={the_map.shift}"
    return f"quad a={the_map.a} b={the_map.b} c={the_map.c}"


def _dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_classification_json(the_map, cls) -> str:
    """Canonical JSON for a classification; parsing and re-rendering it with
    json.dumps(..., indent=2) reproduces the bytes exactly."""
    witness = None
    if cls.witness is not None or cls.condition is not None:
        witness = {"j": cls.witness, "condition": cls.condition}
    return _dump(
        {
            "map": _map_payload(the_map),
            "fixed_points": [str(p) for p in cls.fixed_points],
            "two_cycles": [[str(p) for p in c.points] for c in cls.two_cycles],
            "higher_cycles": [[str(p) for p in c.points] for c in cls.higher_cycles],
            "verdict": cls.behavior,
            "witness": witness,
        }
    )


def _render_classification_table(the_map, cls) -> str:
    lines = [f"map: {_map_label(the_map)}"]
    lines.append(
        "fixed points: " + (", ".join(str(p) for p in cls.fixed_points) or "none")
    )
    if cls.two_cycles:
        lines.append(
            "2-cycles: " + "; ".join("(" + ", ".join(map(str, c.points)) + ")" for c in cls.two_cycles)
        )
    else:
        lines.append("2-cycles: none")
    if cls.higher_cycles:
        lines.append(
            "higher cycles: "
            + "; ".join("(" + ", ".join(map(str, c.points)) + ")" for c in cls.higher_cycles)
        )
    else:
        lines.append("higher cycles: none")
    lines.append(f"verdict: {cls.behavior}")
    if cls.witness is not None or cls.condition is not None:
        lines.append(f"witness: j={cls.witness} ({cls.condition})")
    else:
        lines.append("witness: none")
    return "\n".join(lines) + "\n"


def _decimal_minus_one(d: DecimalApprox) -> str:
    scaled = round(d.as_fraction() * 10**d.digits)
    return format_decimal(scaled - 10**d.digits, d.digits)


# ====================================================================
# subcommand handlers
# ====================================================================


def cmd_classify(args) -> int:
    the_map = _build_map(args.family, args.params)
    cls = classify_power(the_map) if isinstance(the_map, PowerMap) else classify_quad(the_map)
    if args.format == "json":
        _emit(render_classification_json(the_map, cls), args.out)
    else:
        _emit(_render_classification_table(the_map, cls), args.out)
    return 0


def cmd_orbit(args) -> int:
    the_map = _build_map(args.family, args.params)
    cap = args.cap if args.cap is not None else 4 * escape_bound(the_map).bound + 4
    trace = iterate_with_escape(the_map, args.seed, cap)
    if args.format == "json":
        payload = {
            "map": _map_payload(the_map),
            "seed": str(trace.seed),
            "points": [str(p) for p in trace.points],
            "outcome": trace.outcome,
            "cycle": [str(p) for p in trace.cycle.points] if trace.cycle else None,
            "tail_length": trace.tail_length,
            "escape_step": trace.escape_step,
            "certificate": trace.certificate,
        }
        _emit(_dump(payload), args.out)
        return 0
    lines = [f"map: {_map_label(the_map)}", f"seed: {trace.seed}"]
    lines.append("trace: " + " -> ".join(str(p) for p in trace.points))
    if trace.outcome == "enters_cycle":
        cyc = ", ".join(str(p) for p in trace.cycle.points)
        lines.append(
            f"outcome: enters cycle ({cyc}) period={trace.cycle.period} tail={trace.tail_length}"
        )
    elif trace.outcome == "escapes":
        lines.append(f"outcome: escapes at step {trace.escape_step}: {trace.certificate}")
    else:
        lines.append(f"outcome: truncated at cap {trace.cap}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _oracle_command(the_map) -> str:
    """The one-map oracle run that reproduces a disagreement on the_map."""
    if isinstance(the_map, PowerMap):
        return f"orbitforge oracle power --m {the_map.degree} --k={the_map.shift}"
    return f"orbitforge oracle quad --a={the_map.a} --b={the_map.b} --c={the_map.c}"


def cmd_oracle(args) -> int:
    grids = "mk" if args.family == "power" else "abc"
    for name in "mkabc":
        if (getattr(args, name) is None) == (name in grids):
            verb = "needs" if name in grids else "does not read"
            raise ValueError(f"oracle {args.family} {verb} --{name}")
    if args.family == "power":
        maps = [PowerMap(m, k) for m in args.m for k in args.k]
    else:
        maps = [
            QuadMap(a, b, c)
            for a in args.a
            if a != 0  # zero leading coefficient is not a quadratic; skipped
            for b in args.b
            for c in args.c
        ]
        if not maps:
            raise ValueError("grid contains no valid quadratics")
    disagreements: list[dict] = []
    lines: list[str] = []
    # the whole grid goes through one window_cycles call, then each map is
    # compared on its own
    for the_map, observed in zip(maps, window_cycles(maps)):
        report = cross_check(the_map, observed)
        label = _map_label(the_map)
        verdict = "agree"
        if not report.agree:
            command = _oracle_command(the_map)
            disagreements.append({"map": label, "diff": report.diff, "reproduce": command})
            verdict = f"DISAGREE: {report.diff} (reproduce: {command})"
        if args.format == "table":
            lines.append(f"{label}: {verdict}")
    if args.format == "json":
        payload = {
            "checked": len(maps),
            "agree": len(maps) - len(disagreements),
            "disagreements": disagreements,
        }
        _emit(_dump(payload), args.out)
    else:
        lines.append(
            f"checked {len(maps)} maps: "
            + ("all agree" if not disagreements else f"{len(disagreements)} disagreements")
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if disagreements else 0


def _bounds_rows(ks: list[int], digits: int, odd_linear: bool) -> list[dict]:
    rows = []
    for k in ks:
        if k < 0:
            raise ValueError("shift grid must be nonnegative (real fixed points)")
        if odd_linear:
            q = Fraction(k) - Fraction(1, 4)
            top = approx_max_fixed_point_q(q, digits)
            floor = approx_band_floor_q(q, digits) if band_floor_is_real_q(q) else None
        else:
            if k == 0:
                top = DecimalApprox("1." + "0" * digits, digits, Fraction(0))
            else:
                top = approx_max_fixed_point(2, k, digits)
            floor = approx_band_floor(2, k, digits) if k >= 2 else None
        # b = 1 is the quadratic whose normal form is x**2 - (k - 1/4)
        cls = classify_quad(QuadMap(1, 1 if odd_linear else 0, -k))
        rows.append(
            {
                "k": k,
                "top": top,
                "floor": floor,
                "top_minus_one": _decimal_minus_one(top),
                "marked": cls.condition or "",
                "witness": cls.witness,
            }
        )
    return rows


def _bounds_fields(r: dict) -> list:
    """The BOUNDS_CSV_HEADER columns of one row, None where a value is absent."""
    return [
        r["k"],
        r["top"].value,
        r["floor"].value if r["floor"] else None,
        r["top_minus_one"],
        r["marked"] or None,
        r["witness"],
    ]


def _bounds_text(rows: list[dict], sep: str, absent: str) -> str:
    lines = [BOUNDS_CSV_HEADER.replace(",", sep)]
    for r in rows:
        lines.append(sep.join(absent if f is None else str(f) for f in _bounds_fields(r)))
    return "\n".join(lines) + "\n"


def _bounds_csv(rows: list[dict]) -> str:
    return _bounds_text(rows, ",", "")


def _bounds_svg(rows: list[dict]) -> str:
    """Deterministic, self-contained landmark chart.

    Solid curves for the max fixed point and the band floor, a dashed curve
    one below the fixed point, and dots at the marked parameters.
    """
    width, height, margin = 800, 480, 55
    ks = [r["k"] for r in rows]
    k_lo, k_hi = min(ks), max(ks)
    v_hi = max(float(r["top"].as_fraction()) for r in rows) + 0.5
    k_span = max(k_hi - k_lo, 1)

    def sx(k: float) -> float:
        return margin + (k - k_lo) * (width - 2 * margin) / k_span

    def sy(v: float) -> float:
        return height - margin - v * (height - 2 * margin) / v_hi

    def path(points: list[tuple[float, float]]) -> str:
        return " ".join(f"{x:.2f},{y:.2f}" for x, y in points)

    top_pts = [(sx(r["k"]), sy(float(r["top"].as_fraction()))) for r in rows]
    dash_pts = [(sx(r["k"]), sy(float(Fraction(r["top_minus_one"])))) for r in rows]
    floor_pts = [
        (sx(r["k"]), sy(float(r["floor"].as_fraction()))) for r in rows if r["floor"]
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 30}" font-size="12">{k_lo}</text>',
        f'<text x="{width - margin}" y="{height - margin + 30}" font-size="12" '
        f'text-anchor="end">{k_hi}</text>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">parameter</text>',
        f'<polyline fill="none" stroke="#1f4e9c" stroke-width="1.5" points="{path(top_pts)}"/>',
        f'<polyline fill="none" stroke="#1f4e9c" stroke-width="1" '
        f'stroke-dasharray="6 4" points="{path(dash_pts)}"/>',
    ]
    if floor_pts:
        parts.append(
            f'<polyline fill="none" stroke="#b24d22" stroke-width="1.5" '
            f'points="{path(floor_pts)}"/>'
        )
    for r in rows:
        if r["marked"]:
            x = sx(r["k"])
            y = sy(float(r["top"].as_fraction()))
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#137a13"/>')
    parts.append(
        f'<text x="{width - margin}" y="{margin}" font-size="12" text-anchor="end">'
        "solid: max fixed point / band floor; dashed: fixed point - 1; "
        "dots: cycle-bearing parameters</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_bounds(args) -> int:
    if args.digits < 1:
        raise ValueError("digits must be >= 1")
    # absent before Python 3.10.7, whose int-to-str conversion has no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.digits > limit:
        raise ValueError(f"digits must be <= {limit}, the int-to-str conversion limit")
    rows = _bounds_rows(args.k, args.digits, args.odd_linear)
    if args.format == "svg":
        _emit(_bounds_svg(rows), args.out)
    elif args.format == "json":
        header = BOUNDS_CSV_HEADER.split(",")
        _emit(_dump([dict(zip(header, _bounds_fields(r))) for r in rows]), args.out)
    elif args.format == "csv":
        _emit(_bounds_csv(rows), args.out)
    else:
        _emit(_bounds_text(rows, "  ", "-"), args.out)
    return 0


def _scan_csv_row(summary) -> str:
    return (
        f"{summary.modulus},{summary.max_cycle_length},{summary.cycle_count},"
        f"{summary.nodes_on_cycles},{summary.max_tail_length}\n"
    )


def _cut_csv(path: Path, done: int) -> bool:
    """Cut a CSV being resumed back to its header and the complete rows at or
    below done, the last checkpointed modulus.

    False (restart) when the file is empty or holds a torn header.  Any CSV
    that an interrupted run of this scan cannot leave (another header, a bad
    modulus, rows that end short of done) raises CheckpointError before
    either file is changed: a row is flushed before its checkpoint line.
    """
    header = MODSCAN_CSV_HEADER.encode() + b"\n"
    with open(path, "rb") as fh:
        first = fh.readline()
        if header.startswith(first) and first != header:
            return False
        if first != header:
            raise CheckpointError(f"{path} is not a modscan CSV")
        keep, last = len(header), None
        for line in fh:
            if not line.endswith(b"\n"):
                break
            try:
                modulus = int(line.split(b",", 1)[0])
            except ValueError:
                raise CheckpointError(f"{path}: bad modulus in row {line!r}") from None
            if modulus > done:
                break
            keep, last = keep + len(line), modulus
    if last != done:
        raise CheckpointError(f"{path} ends at modulus {last}, the checkpoint at {done}")
    os.truncate(path, keep)
    return True


def _cut_torn_line(path: Path) -> None:
    """Truncate a file after its last newline, dropping an interrupted write."""
    data = path.read_bytes()
    if not data.endswith(b"\n"):
        os.truncate(path, data.rfind(b"\n") + 1)


def cmd_modscan(args) -> int:
    the_map = _build_map(args.family, args.params)
    if args.stride < 1:
        raise ValueError("stride must be >= 1")
    moduli = sorted(set(args.M))[:: args.stride]
    # refuses bad moduli in the whole grid before any file is touched
    summaries = max_cycle_scan(the_map, moduli)
    ck, resume = args.checkpoint, False
    if ck is not None and ck.exists():
        done = read_checkpoint(ck, the_map)  # may raise CheckpointError
        if done is not None and args.out is not None and args.out.exists():
            resume = _cut_csv(args.out, done)
        if resume:
            _cut_torn_line(ck)
            summaries = max_cycle_scan(the_map, [m for m in moduli if m > done])
    # without a CSV to extend, a checkpoint is overwritten: the scan restarts
    mode = "a" if resume else "w"
    params = map_params(the_map)
    with (
        open(args.out, mode, encoding="ascii", newline="")
        if args.out is not None
        else contextlib.nullcontext(sys.stdout)
    ) as fh, (
        open(ck, mode, encoding="ascii") if ck is not None else contextlib.nullcontext()
    ) as sink:
        if not resume:
            fh.write(MODSCAN_CSV_HEADER + "\n")
        for summary in summaries:
            fh.write(_scan_csv_row(summary))
            fh.flush()
            if sink is not None:
                sink.write(checkpoint_line(params, summary))
                sink.flush()
    return 0


def cmd_latticecheck(args) -> int:
    poly = RationalPoly(args.coeffs)
    cert = lattice_check(poly)  # ValueError for degree < 2 -> usage error
    orbit: list[Fraction] = []
    anomaly = False
    if cert.holds:
        x = Fraction(cert.step)
        orbit.append(x)
        for _ in range(5):
            x = poly(x)
            orbit.append(x)
        anomaly = any(v.denominator != 1 or v.numerator % cert.step for v in orbit)
    if args.format == "json":
        payload = {
            "coefficients": [str(c) for c in poly.coeffs],
            "step": cert.step,
            "holds": cert.holds,
            "reason": cert.reason,
            "sample_orbit": [str(v) for v in orbit] if cert.holds else None,
            "anomaly": anomaly,
        }
        _emit(_dump(payload), args.out)
    else:
        terms = " + ".join(
            f"{c}*x^{i}" if i else str(c) for i, c in enumerate(poly.coeffs) if c
        )
        lines = [
            f"polynomial: {terms}",
            f"step: {cert.step}",
            f"holds: {'yes' if cert.holds else 'no'} ({cert.reason})",
        ]
        if cert.holds:
            lines.append(
                f"sample orbit (seed {cert.step}): " + " -> ".join(str(v) for v in orbit)
            )
            lines.append(
                "orbit stays in the lattice"
                if not anomaly
                else "ANOMALY: orbit left the lattice"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if anomaly else 0


def cmd_conjugate(args) -> int:
    the_map = QuadMap(args.a, args.b, args.c)
    con = conjugacy_of_quad(the_map)
    if args.format == "json":
        payload = {
            "map": _map_payload(the_map),
            "scale": str(con.scale),
            "offset": str(con.offset),
            "q": str(con.q),
        }
        _emit(_dump(payload), args.out)
    else:
        lines = [
            f"map: {_map_label(the_map)}",
            f"normal form: x^2 - ({con.q})",
            f"push: r = {con.scale}*s + {con.offset}",
            f"pull: s = (r - {con.offset}) / {con.scale}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ====================================================================
# parser assembly
# ====================================================================


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The orbitforge argument parser, built once per process.

    Parsing leaves the parser unchanged, so every main() call shares it.
    Each subcommand's handler is bound when the parser is built: replacing
    a cmd_* function afterwards does not reach it.
    """
    parser = argparse.ArgumentParser(
        prog="orbitforge",
        description="Exact classification and verification of periodic integer orbits.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, formats=("table", "json")):
        # the first format is the default
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(handler=handler)
        return p

    p = command("classify", cmd_classify, "classify one map")
    p.add_argument("family", choices=("power", "quad"))
    p.add_argument("params", nargs="+", type=int)

    p = command("orbit", cmd_orbit, "trace one seed")
    p.add_argument("family", choices=("power", "quad"))
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)

    p = command("oracle", cmd_oracle, "cross-check grids")
    p.add_argument("family", choices=("power", "quad"))
    p.add_argument("--m", type=_grid, default=None)
    p.add_argument("--k", type=_grid, default=None)
    p.add_argument("--a", type=_grid, default=None)
    p.add_argument("--b", type=_grid, default=None)
    p.add_argument("--c", type=_grid, default=None)
    p.add_argument("--workers", type=_worker_count)

    p = command("bounds", cmd_bounds, "landmark curves", ("table", "json", "csv", "svg"))
    p.add_argument("--k", type=_grid, required=True)
    p.add_argument("--digits", type=int, default=3)
    p.add_argument(
        "--odd-linear",
        action="store_true",
        help="evaluate the family x^2 - (k - 1/4), the normal form of quadratics "
        "with odd linear coefficient; marks k = j^2 and k = j^2 + 1",
    )
    p.add_argument("--workers", type=_worker_count)

    p = command("modscan", cmd_modscan, "cycle survey over Z_M", ("csv",))
    p.add_argument("family", choices=("power", "quad"))
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--M", type=_grid, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--workers", type=_worker_count)

    p = command("latticecheck", cmd_latticecheck, "lattice stability of a rational polynomial")
    p.add_argument("coeffs", nargs="+", type=_rational, help="constant term first")

    p = command("conjugate", cmd_conjugate, "normal form of a quadratic")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
