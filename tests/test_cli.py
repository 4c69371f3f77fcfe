"""Command-line surface: rendering, grids, exit codes, file handling."""

import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitforge.cli as cli_module
import orbitforge.modular as modular_module
import orbitforge.oracle as oracle_module
from orbitforge.cli import (
    BOUNDS_CSV_HEADER,
    MODSCAN_CSV_HEADER,
    entrypoint,
    main,
    parse_grid,
)
from orbitforge.classify import classify_quad
from orbitforge.maps import PowerMap, QuadMap
from orbitforge.modular import functional_graph, read_checkpoint
from orbitforge.oracle import oracle_cycles

# ====================================================================
# grid parsing
# ====================================================================


def test_parse_grid():
    assert parse_grid("4,6,8") == [4, 6, 8]
    assert parse_grid("1,3..5") == [1, 3, 4, 5]
    assert parse_grid("-3..1") == [-3, -2, -1, 0, 1]
    assert parse_grid("7") == [7]
    for bad in ("", "5..1", "abc", ","):
        with pytest.raises(ValueError):
            parse_grid(bad)


# ====================================================================
# classify
# ====================================================================


def test_classify_power_table(capsys):
    assert main(["classify", "power", "2", "7"]) == 0
    assert capsys.readouterr().out == (
        "map: power degree=2 shift=7\n"
        "fixed points: none\n"
        "2-cycles: (-3, 2)\n"
        "higher cycles: none\n"
        "verdict: diverges_to_plus_inf\n"
        "witness: j=2 (pronic_plus_one)\n"
    )


def test_classify_identity_map_table(capsys):
    assert main(["classify", "power", "1", "0"]) == 0
    out = capsys.readouterr().out
    assert "verdict: all_seeds_fixed" in out


def test_classify_json_round_trips(capsys):
    assert main(["classify", "quad", "1", "1", "-2", "--format", "json"]) == 0
    text = capsys.readouterr().out
    data = json.loads(text)
    assert json.dumps(data, indent=2) + "\n" == text
    assert data["map"] == {"family": "quad", "a": 1, "b": 1, "c": -2}
    assert data["two_cycles"] == [["-2", "0"]]
    assert data["verdict"] == "diverges_to_plus_inf"
    assert data["witness"] == {"j": 1, "condition": "square_plus_one"}


def test_classify_json_renders_big_integers_in_full(capsys):
    j = 10**20
    assert main(["classify", "power", "2", str(j * (j + 1)), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fixed_points"] == [str(-j), str(j + 1)]
    assert all("e" not in s for s in data["fixed_points"])


def test_classify_usage_errors(capsys):
    assert main(["classify", "power", "2"]) == 2  # missing shift
    assert main(["classify", "quad", "0", "1", "2"]) == 2  # zero leading coeff
    assert main(["classify", "power", "2", "7", "--format", "csv"]) == 2
    assert main(["classify", "power", "2", "6", "--cap", "5"]) == 2  # orbit only
    assert main(["classify", "power", "0", "7"]) == 2  # degree < 1
    # --workers belongs to oracle, bounds and modscan
    assert main(["classify", "power", "2", "6", "--workers", "2"]) == 2
    assert main(["orbit", "power", "2", "6", "--seed", "1", "--workers", "2"]) == 2
    assert main([]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize("command", ["classify", "orbit", "modscan"])
@pytest.mark.parametrize(
    "family, params, fields",
    [
        ("power", ["2"], "degree shift"),
        ("power", ["2", "1", "0"], "degree shift"),
        ("quad", ["1", "0"], "a b c"),
        ("quad", ["1", "0", "-2", "5"], "a b c"),
    ],
)
def test_wrong_parameter_count_is_refused(capsys, command, family, params, fields):
    extra = {"classify": [], "orbit": ["--seed", "1"], "modscan": ["--M", "2..5"]}[command]
    assert main([command, family, *params, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{family} maps take {len(fields.split())} integers: {fields}" in captured.err


def test_out_writes_file(tmp_path):
    target = tmp_path / "c.json"
    assert (
        main(["classify", "power", "2", "6", "--format", "json", "--out", str(target)])
        == 0
    )
    data = json.loads(target.read_text())
    assert data["fixed_points"] == ["-2", "3"]


# ====================================================================
# orbit
# ====================================================================


def test_orbit_table(capsys):
    assert main(["orbit", "power", "2", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "trace: 0 -> -2 -> 2 -> 2" in out
    assert "enters cycle (2) period=1 tail=2" in out


def test_orbit_escape_json(capsys):
    assert main(["orbit", "power", "4", "2", "--seed", "0", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["points"] == ["0", "-2"]
    assert data["outcome"] == "escapes"
    assert data["escape_step"] == 1
    assert data["cycle"] is None
    assert "max_fixed_point_floor" in data["certificate"]


def test_orbit_cycle_json(capsys):
    assert main(["orbit", "quad", "1", "2", "-7", "--seed", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["outcome"] == "enters_cycle"
    assert data["cycle"] == ["-4", "1"]
    assert data["tail_length"] == 0


def test_orbit_identity_map_never_escapes(capsys):
    assert main(["orbit", "power", "1", "0", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "trace: 5 -> 5\n" in out
    assert "outcome: enters cycle (5) period=1 tail=0\n" in out
    assert main(["orbit", "power", "1", "0", "--seed", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["outcome"], data["points"], data["cycle"]) == ("enters_cycle", ["5", "5"], ["5"])
    assert data["certificate"] is None


def test_orbit_cap_flag(capsys):
    assert main(["orbit", "power", "2", "7", "--seed", "2", "--cap", "1"]) == 0
    assert "truncated at cap 1" in capsys.readouterr().out


# ====================================================================
# oracle
# ====================================================================


def test_oracle_table_all_agree(capsys):
    assert main(["oracle", "power", "--m", "2", "--k", "5..7"]) == 0
    out = capsys.readouterr().out
    assert "power degree=2 shift=6: agree" in out
    assert "checked 3 maps: all agree" in out


def test_oracle_json_and_workers_agree(capsys):
    assert main(["oracle", "power", "--m", "2,3", "--k=-5..20", "--format", "json"]) == 0
    serial = capsys.readouterr().out
    assert (
        main(
            [
                "oracle", "power", "--m", "2,3", "--k=-5..20",
                "--format", "json", "--workers", "2",
            ]
        )
        == 0
    )
    parallel = capsys.readouterr().out
    assert serial == parallel
    data = json.loads(serial)
    assert data["checked"] == 52 and data["disagreements"] == []


def test_oracle_quad_grid(capsys):
    assert main(["oracle", "quad", "--a", "1", "--b=-2..2", "--c=-9..9"]) == 0
    assert "all agree" in capsys.readouterr().out


def test_oracle_usage_errors(capsys):
    assert main(["oracle", "power", "--m", "2"]) == 2  # missing --k
    assert main(["oracle", "power", "--m", "0..1", "--k", "1"]) == 2
    assert main(["oracle", "quad", "--a", "0", "--b", "1", "--c", "1"]) == 2
    assert main(["oracle", "power", "--m", "2", "--k", "1..5", "--workers", "0"]) == 2
    # the other family's grids are refused, not ignored
    for argv, stray in (
        (["oracle", "power", "--m", "2", "--k=1..3", "--a=5", "--c=7"], "--a"),
        (["oracle", "quad", "--a=1", "--b=0", "--c=-2..2", "--m", "3", "--k", "9"], "--m"),
        (["oracle", "quad", "--a=1", "--b=0", "--c=-2..2", "--k", "9"], "--k"),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not read {stray}" in captured.err


def test_oracle_refuses_an_oversized_window(monkeypatch, capsys):
    # refused before any window graph is built: x**2 - 10**40 has a window
    # of about 2*10**20 seeds
    def built(batch):
        raise AssertionError("a window graph was built")

    monkeypatch.setattr(oracle_module, "_window_graph", built)
    assert main(["oracle", "power", "--m", "2", "--k=1..3,1" + "0" * 40]) == 2
    err = capsys.readouterr().err
    assert f"limit of {oracle_module.WINDOW_LIMIT}" in err
    assert "PowerMap(degree=2, shift=1" + "0" * 40 + ")" in err
    # the grid names its first map over the limit, with the message of a
    # one-map oracle_cycles call; a table bound that stops short of the
    # limit still counts every seed.  Grid order is degree first.
    for argv, first in (
        (["--m", "2", "--k=1..3,1" + "0" * 40], PowerMap(2, 10**40)),
        (["--m", "1,2", "--k=5,1048580,1" + "0" * 40], PowerMap(1, 1048580)),
        (["--m", "2,1", "--k=5,1048580,1" + "0" * 40], PowerMap(2, 10**40)),
        (["--m", "2", "--k=5,1" + "0" * 13], PowerMap(2, 10**13)),
    ):
        with pytest.raises(ValueError) as refused:
            oracle_cycles(first)
        seeds = 2 * oracle_module.escape_bound(first).bound + 1
        assert str(refused.value) == (
            f"the escape window of {first} holds {seeds} seeds, "
            f"over the oracle's limit of {oracle_module.WINDOW_LIMIT}"
        )
        assert main(["oracle", "power", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {refused.value}\n"


def test_oracle_computes_escape_bounds_of_flagged_maps_only(monkeypatch, capsys):
    # the grid's bounds come from tables; escape_bound runs once for each
    # map that either side flags, and for no other
    flagged = set()
    for q in (QuadMap(a, b, c) for a in (1, 2) for b in (-1, 0, 1) for c in range(-9, 10)):
        seen = oracle_cycles(q)
        if classify_quad(q).condition is not None or seen.fixed_points or seen.two_cycles:
            flagged.add(q)
    assert 0 < len(flagged) < 2 * 3 * 19 / 2
    calls = []
    real = oracle_module.escape_bound
    monkeypatch.setattr(oracle_module, "escape_bound", lambda m: calls.append(m) or real(m))
    assert main(["oracle", "quad", "--a=1..2", "--b=-1..1", "--c=-9..9", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == 2 * 3 * 19
    assert len(set(calls)) == len(calls)
    assert set(calls) == flagged


def test_oracle_disagreement_exits_one(monkeypatch, capsys):
    # plant a wrong prediction: the gate must trip and report it
    from orbitforge.classify import classify_power

    def wrong(power):
        real = classify_power(power)
        return type(real)((99,), real.two_cycles, (), real.behavior)

    monkeypatch.setattr(oracle_module, "classify_power", wrong)
    assert main(["oracle", "power", "--m", "2", "--k=-1..6", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["checked"] == 8 and len(data["disagreements"]) == 8
    found = data["disagreements"][0]
    assert "fixed points differ" in found["diff"]
    assert found["map"] == "power degree=2 shift=-1"
    assert found["reproduce"] == "orbitforge oracle power --m 2 --k=-1"
    # the printed command alone reproduces the same diff, in both formats
    argv = shlex.split(found["reproduce"])[1:]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out == (
        f"{found['map']}: DISAGREE: {found['diff']} (reproduce: {found['reproduce']})\n"
        "checked 1 maps: 1 disagreements\n"
    )
    assert main([*argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["disagreements"] == [found]


def test_oracle_quad_reproducer(monkeypatch, capsys):
    from orbitforge.classify import classify_quad

    def wrong(quad):
        real = classify_quad(quad)
        return type(real)(real.fixed_points, (), (), real.behavior)

    monkeypatch.setattr(oracle_module, "classify_quad", wrong)
    # x**2 + 2x - 7 has the 2-cycle (-4, 1); the other quads have none
    assert main(["oracle", "quad", "--a", "1", "--b=2", "--c=-8..-6", "--format", "json"]) == 1
    (found,) = json.loads(capsys.readouterr().out)["disagreements"]
    assert found["reproduce"] == "orbitforge oracle quad --a=1 --b=2 --c=-7"
    assert main([*shlex.split(found["reproduce"])[1:], "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["disagreements"] == [found]


# ====================================================================
# bounds
# ====================================================================


def test_bounds_csv_golden(capsys):
    assert main(["bounds", "--k", "2..7", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "k,max_fixed_point,band_floor,max_fixed_point_minus_1,marked,witness_j\n"
        "2,2.000,0.000,1.000,pronic,1\n"
        "3,2.302,0.834,1.302,pronic_plus_one,1\n"
        "4,2.561,1.199,1.561,,\n"
        "5,2.791,1.486,1.791,,\n"
        "6,3.000,1.732,2.000,pronic,2\n"
        "7,3.192,1.951,2.192,pronic_plus_one,2\n"
    )


def test_bounds_odd_linear_csv_golden(capsys):
    assert main(["bounds", "--k", "0..6", "--format", "csv", "--odd-linear"]) == 0
    assert capsys.readouterr().out == (
        "k,max_fixed_point,band_floor,max_fixed_point_minus_1,marked,witness_j\n"
        "0,0.500,,-0.500,square,0\n"
        "1,1.500,,0.500,square,1\n"
        "2,1.914,,0.914,square_plus_one,1\n"
        "3,2.232,0.719,1.232,,\n"
        "4,2.500,1.118,1.500,square,2\n"
        "5,2.736,1.419,1.736,square_plus_one,2\n"
        "6,2.949,1.673,1.949,,\n"
    )


def test_bounds_json(capsys):
    assert main(["bounds", "--k", "1,6", "--format", "json", "--digits", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)
    # k=1 sits below the band threshold; it is 0*1+1, so still cycle-marked
    assert rows[0]["band_floor"] is None
    assert rows[0]["marked"] == "pronic_plus_one" and rows[0]["witness_j"] == 0
    assert rows[1] == {
        "k": 6,
        "max_fixed_point": "3.0000",
        "band_floor": "1.7320",
        "max_fixed_point_minus_1": "2.0000",
        "marked": "pronic",
        "witness_j": 2,
    }


def test_bounds_table(capsys):
    assert main(["bounds", "--k", "5..6"]) == 0
    out = capsys.readouterr().out
    assert BOUNDS_CSV_HEADER.replace(",", "  ") in out
    assert "pronic" in out


def test_bounds_svg_is_deterministic(capsys):
    assert main(["bounds", "--k", "2..30", "--format", "svg"]) == 0
    first = capsys.readouterr().out
    assert main(["bounds", "--k", "2..30", "--format", "svg"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("<svg")
    assert first.rstrip().endswith("</svg>")
    for tag in ("polyline", "circle", "stroke-dasharray"):
        assert tag in first


# SHA-256 of `bounds --k 0..300 --digits 12` stdout, recorded with the
# Fraction-bisection kernel that the scaled-integer sign test replaced
BOUNDS_0_300_SHA256 = {
    ("csv", False): "41a942283bf94d5d45540ea1ac9099d53202ade0ab38db32e4b558cf9862e400",
    ("json", False): "e985ab1ac326b25ad473f35eb20e50f2fd6cc5429344790ff0490845135556b6",
    ("svg", False): "bd42744167dc8b2e603b806919a8d973d2007c2cef3006f458981e23ccdfedb7",
    ("csv", True): "59ab5f3b6ff42d0a9d8bb7527f092fc441c4ffffd000d79dadc3ffbb2d5ca05c",
    ("json", True): "b95bf902d7c983fa2deb0a0e32d926f2385739bd2966f63f2e59d51800a6ebd8",
    ("svg", True): "4309f11ba4c8148c783ad6db68a82ffa69d1f4f43492a4dbe26362c947afc725",
}


@pytest.mark.parametrize("fmt,odd_linear", sorted(BOUNDS_0_300_SHA256))
def test_bounds_golden_bytes(capsys, fmt, odd_linear):
    argv = ["bounds", "--k", "0..300", "--digits", "12", "--format", fmt]
    assert main(argv + (["--odd-linear"] if odd_linear else [])) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == BOUNDS_0_300_SHA256[(fmt, odd_linear)]


def test_bounds_usage_errors():
    assert main(["bounds", "--k", "2..5", "--digits", "0"]) == 2
    assert main(["bounds", "--k=-3..5"]) == 2  # negative shift
    assert main(["bounds", "--k", "abc"]) == 2
    # perfbench passes --workers to every subcommand it runs, bounds included
    assert main(["bounds", "--k", "2..5", "--workers", "2", "--format", "csv"]) == 0
    # ...and refuses a worker count below 1 as oracle and modscan do
    assert main(["bounds", "--k", "2..3", "--workers", "0", "--format", "csv"]) == 2


@pytest.fixture
def int_str_limit_640():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(before)


def test_bounds_refuses_digits_over_int_str_limit(monkeypatch, capsys, int_str_limit_640):
    calls = []
    for name in [n for n in dir(cli_module) if n.startswith("approx_")]:
        real = getattr(cli_module, name)
        monkeypatch.setattr(cli_module, name, lambda *a, real=real: calls.append(a) or real(*a))
    for family in ([], ["--odd-linear"]):
        bounds = ["bounds", "--k", "2..3", "--format", "csv", *family]
        capsys.readouterr()
        assert main(bounds + ["--digits", "641"]) == 2
        assert "640" in capsys.readouterr().err
        assert calls == []
        assert main(bounds + ["--digits", "640"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [len(row.split(",")[1].split(".")[1]) for row in rows] == [640, 640]
        calls.clear()


# ====================================================================
# modscan
# ====================================================================


def test_modscan_stdout_golden(capsys):
    assert main(["modscan", "power", "2", "1", "--M", "2..6"]) == 0
    assert capsys.readouterr().out == (
        "modulus,max_cycle_length,cycle_count,nodes_on_cycles,max_tail_length\n"
        "2,2,1,2,0\n"
        "3,2,1,2,1\n"
        "4,2,1,2,1\n"
        "5,2,2,3,1\n"
        "6,2,2,4,1\n"
    )


def test_modscan_stride(capsys):
    assert main(["modscan", "power", "2", "1", "--M", "2..10", "--stride", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "6", "10"]


def test_modscan_quad(capsys):
    assert main(["modscan", "quad", "1", "1", "-2", "--M", "2..4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == MODSCAN_CSV_HEADER
    assert len(lines) == 4


def test_modscan_resume_is_byte_identical(tmp_path):
    full = tmp_path / "full.csv"
    part = tmp_path / "part.csv"
    ck = tmp_path / "ck.txt"
    base = ["modscan", "power", "2", "1"]
    assert main(base + ["--M", "2..40", "--out", str(full)]) == 0
    assert main(base + ["--M", "2..25", "--out", str(part), "--checkpoint", str(ck)]) == 0
    assert main(base + ["--M", "2..40", "--out", str(part), "--checkpoint", str(ck)]) == 0
    assert full.read_bytes() == part.read_bytes()


def test_modscan_resume_reads_checkpoint_once(monkeypatch, tmp_path):
    files = ["--out", str(tmp_path / "scan.csv"), "--checkpoint", str(tmp_path / "scan.ck")]
    assert main(["modscan", "power", "2", "1", "--M", "2..25", *files]) == 0
    calls = []
    for module in (cli_module, modular_module):
        real = module.read_checkpoint
        monkeypatch.setattr(
            module, "read_checkpoint", lambda *a, real=real: calls.append(a) or real(*a)
        )
    assert main(["modscan", "power", "2", "1", "--M", "2..40", *files]) == 0
    assert len(calls) == 1


def test_modscan_quad_checkpoint_lines(tmp_path):
    ck = tmp_path / "scan.ck"
    assert main(["modscan", "quad", "1", "1", "-2", "--M", "5,3,9", "--checkpoint", str(ck)]) == 0
    the_map = QuadMap(1, 1, -2)
    expected = ""
    for m in (3, 5, 9):
        summary = functional_graph(the_map, m)
        expected += f"1 1 -2 {m} {summary.max_cycle_length} {summary.cycle_count}\n"
    assert ck.read_text() == expected


def test_modscan_resume_skips_checkpointed_moduli(monkeypatch, tmp_path):
    out, ck = tmp_path / "scan.csv", tmp_path / "scan.ck"
    scan = ["modscan", "power", "2", "1", "--out", str(out), "--checkpoint", str(ck)]
    assert main(scan + ["--M", "2..20"]) == 0
    walked = []
    real = modular_module.functional_graph
    monkeypatch.setattr(
        modular_module,
        "functional_graph",
        lambda f, m, **kw: walked.append(m) or real(f, m, **kw),
    )
    assert main(scan + ["--M", "2..30"]) == 0
    assert walked == list(range(21, 31))
    assert read_checkpoint(ck, PowerMap(2, 1)) == 30
    # fully covered: nothing is walked and neither file changes
    before = (out.read_bytes(), ck.read_bytes())
    walked.clear()
    assert main(scan + ["--M", "2..30"]) == 0
    assert walked == []
    assert (out.read_bytes(), ck.read_bytes()) == before


class Interrupted(Exception):
    """Stands for a kill between two writes of a scan."""


FAULT_SCAN = ["modscan", "power", "2", "1", "--M", "2..40"]
FAULT_ROWS = 39


def _scan(out, ck) -> int:
    return main(FAULT_SCAN + ["--out", str(out), "--checkpoint", str(ck)])


@pytest.fixture(scope="module")
def uninterrupted_scan(tmp_path_factory):
    d = tmp_path_factory.mktemp("full")
    assert _scan(d / "scan.csv", d / "scan.ck") == 0
    return (d / "scan.csv").read_bytes(), (d / "scan.ck").read_bytes()


def _stopped_scan(monkeypatch, tmp_path, after: str, row: int):
    """CSV and checkpoint paths of a scan killed right after it wrote the
    row-th CSV row (after="csv") or the row-th checkpoint line ("checkpoint").

    Row n is written between the n-th calls of cli._scan_csv_row and
    cli.checkpoint_line, and its checkpoint line after the latter.
    """
    out, ck = tmp_path / "scan.csv", tmp_path / "scan.ck"
    module, name, stop = {
        "csv": (cli_module, "checkpoint_line", row),
        "checkpoint": (cli_module, "_scan_csv_row", row + 1),
    }[after]
    if stop > FAULT_ROWS:  # the last checkpoint line ends the scan
        assert _scan(out, ck) == 0
        return out, ck
    real, calls = getattr(module, name), []

    def interrupt(*args):
        calls.append(args)
        if len(calls) == stop:
            raise Interrupted
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(module, name, interrupt)
        with pytest.raises(Interrupted):
            _scan(out, ck)
    return out, ck


@pytest.mark.parametrize("row", range(1, FAULT_ROWS + 1))
@pytest.mark.parametrize("after", ["csv", "checkpoint"])
def test_modscan_resume_after_interrupt(monkeypatch, tmp_path, uninterrupted_scan, after, row):
    out, ck = _stopped_scan(monkeypatch, tmp_path, after, row)
    assert _scan(out, ck) == 0
    assert (out.read_bytes(), ck.read_bytes()) == uninterrupted_scan


# A torn write leaves the written file's last line cut short of its newline;
# tearing the first checkpoint line leaves nothing but that prefix.
@pytest.mark.parametrize("row", [1, 29, FAULT_ROWS])
@pytest.mark.parametrize("torn", ["csv", "checkpoint"])
def test_modscan_resume_after_torn_line(monkeypatch, tmp_path, uninterrupted_scan, torn, row):
    out, ck = _stopped_scan(monkeypatch, tmp_path, torn, row)
    target = out if torn == "csv" else ck
    state = {out: out.read_bytes(), ck: ck.read_bytes()}
    whole = state[target]
    for cut in range(whole.rstrip(b"\n").rfind(b"\n") + 1, len(whole)):
        for path, data in state.items():
            path.write_bytes(whole[:cut] if path is target else data)
        assert _scan(out, ck) == 0
        assert (out.read_bytes(), ck.read_bytes()) == uninterrupted_scan


def test_modscan_checkpoint_without_csv_restarts(tmp_path, capsys):
    ck = tmp_path / "ck.txt"
    out = tmp_path / "rows.csv"
    scan = ["modscan", "power", "2", "1", "--M", "2..10", "--checkpoint", str(ck)]
    # the checkpoint covers 2..10 but no CSV rows exist to extend (no file,
    # an empty one, a torn header): start fresh
    for csv in (None, "", MODSCAN_CSV_HEADER[:9]):
        assert main(scan) == 0
        capsys.readouterr()
        if csv is not None:
            out.write_text(csv)
        assert main(scan + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == MODSCAN_CSV_HEADER
        assert len(lines) == 10


# none of these is left by an interrupted scan: a row is flushed before its
# checkpoint line is written
@pytest.mark.parametrize(
    "csv",
    [
        "k,max_fixed_point\n2,1.000\n",
        MODSCAN_CSV_HEADER + "\n",
        MODSCAN_CSV_HEADER + "\n2,1,2,2,0\nthree,2,1,2,1\n",
    ],
    ids=["other_header", "rows_missing", "bad_modulus"],
)
def test_modscan_resume_refuses_foreign_csv(tmp_path, capsys, csv):
    out, ck = tmp_path / "scan.csv", tmp_path / "scan.ck"
    files = ["--out", str(out), "--checkpoint", str(ck)]
    assert main(["modscan", "power", "2", "1", "--M", "2..10", *files]) == 0
    out.write_text(csv)
    before = (out.read_bytes(), ck.read_bytes())
    capsys.readouterr()
    assert main(["modscan", "power", "2", "1", "--M", "2..20", *files]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    assert (out.read_bytes(), ck.read_bytes()) == before


def test_modscan_checkpoint_failures(tmp_path, capsys):
    ck = tmp_path / "ck.txt"
    ck.write_text("garbage here\n")
    rc = main(["modscan", "power", "2", "1", "--M", "2..5", "--checkpoint", str(ck)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err

    ck.write_text("3 1 10 2 1\n")  # record for a different map
    rc = main(["modscan", "power", "2", "1", "--M", "2..5", "--checkpoint", str(ck)])
    assert rc == 3

    # a checkpoint that is not ASCII, by a byte-order mark or a full-width
    # digit in place of the last modulus: exit 3 naming it, no file changed
    out = tmp_path / "scan.csv"
    scan = ["modscan", "power", "2", "1", "--M", "2..9", "--out", str(out), "--checkpoint", str(ck)]
    ck.unlink()
    assert main(scan) == 0
    lines = ck.read_bytes().splitlines(keepends=True)
    for bad in (
        b"\xff\xfe" + b"".join(lines),
        b"".join(lines[:-1]) + "2 1 \uff19 2 1\n".encode("utf-8"),
    ):
        ck.write_bytes(bad)
        before = (out.read_bytes(), ck.read_bytes())
        capsys.readouterr()
        assert main(scan) == 3
        assert str(ck) in capsys.readouterr().err
        assert (out.read_bytes(), ck.read_bytes()) == before



def _array_memory_error():
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy 1.x
        from numpy.core._exceptions import _ArrayMemoryError
    return _ArrayMemoryError((1 << 40,), np.dtype(np.int64))


@pytest.mark.parametrize("error", [MemoryError, _array_memory_error])
def test_out_of_memory_exits_three(monkeypatch, capsys, error):
    # exit 1 would claim a verified disagreement; the error is raised, not
    # provoked, so nothing large is allocated
    def exhausted(*args):
        raise error()

    monkeypatch.setattr(cli_module, "classify_power", exhausted)
    assert main(["classify", "power", "2", "6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

def test_modscan_usage_errors(tmp_path, capsys):
    assert main(["modscan", "power", "2", "1", "--M", "2..5", "--stride", "0"]) == 2
    assert main(["modscan", "power", "2", "1", "--M", "2..5", "--format", "json"]) == 2
    assert main(["modscan", "power", "2", "1", "--M", "1..3"]) == 2  # modulus < 2
    # a refused modulus touches neither earlier output nor stdout
    out, ck, new = tmp_path / "scan.csv", tmp_path / "ck", tmp_path / "new.csv"
    scan = ["modscan", "power", "2", "1", "--out", str(out), "--checkpoint", str(ck)]
    assert main(scan + ["--M", "2..5"]) == 0
    before = (out.read_bytes(), ck.read_bytes())
    capsys.readouterr()
    for grid, files in (
        ("0..5", []),
        ("0..5", ["--out", str(out)]),
        ("0..5", ["--out", str(out), "--checkpoint", str(ck)]),
        ("1..20", ["--out", str(new), "--checkpoint", str(ck)]),
    ):
        assert main(["modscan", "power", "2", "1", "--M", grid, *files]) == 2
        assert capsys.readouterr().out == ""
        assert (out.read_bytes(), ck.read_bytes()) == before
        assert not new.exists()


# ====================================================================
# golden bytes of every subcommand
# ====================================================================

# SHA-256 of stdout, recorded before the subcommands declared their own
# options and before the oracle and modscan loops shared one worker map
CLI_SHA256 = {
    "classify power 2 7 --format table": "efbedc5e957ba479b874b2f96c155ac986d747c562baa0d1370fc4724d5f1f74",
    "classify power 2 7 --format json": "54a07346f523c155cbfd60bbf82bea3e5aee6a8ad5716c89cabbba825bb2107d",
    "classify quad 1 1 -2 --format table": "637d53c3116f1f690d612bdc81ff394ce2e24474043ca21894987a955eab7886",
    "classify quad 1 1 -2 --format json": "26e9c8d2e8955c7d8c62f496ade326f65489bd9c70632dc5436cf68b8f077315",
    "orbit power 2 2 --seed 0 --format table": "5aa10425980d7ecd526fb1613602fbc0f0f9ae667a24a95b9876fb6db8851222",
    "orbit power 2 2 --seed 0 --format json": "e498cee2bc22a6caacf24a607197019e9a384b0ee93e15f5c91ffc5af91d0f19",
    "orbit power 4 2 --seed 0 --format table": "3fe3e75a2ba61d90d22863e4da3cbee0a9d2eac96f44c75ed5627ca9d2096989",
    "orbit power 4 2 --seed 0 --format json": "87ff6a6254e776f4505299c9cef41053b738748d2ec5abd276794c9bde32b32d",
    "orbit power 2 7 --seed 2 --cap 1 --format table": "46513e88d88e40d82447a8ce1ce3918d5131a09c04e1b04f6b7d30edad7bdfd5",
    "orbit power 2 7 --seed 2 --cap 1 --format json": "b4161eb949e6388b08ccda3a2b4637e641800bd7b85216b1961239f54ba2cb8d",
    "oracle power --m 2,3 --k=-5..20 --format table --workers 1": "9ac772cfacdf7f385f0f2897100c2dc13ad7d69e7af477955b37724b4f22f3e1",
    "oracle power --m 2,3 --k=-5..20 --format table --workers 2": "9ac772cfacdf7f385f0f2897100c2dc13ad7d69e7af477955b37724b4f22f3e1",
    "oracle power --m 2,3 --k=-5..20 --format json --workers 1": "b678e97577f699f3a2c97c460536e816f82655b3dc085f2f9701298122ef5928",
    "oracle power --m 2,3 --k=-5..20 --format json --workers 2": "b678e97577f699f3a2c97c460536e816f82655b3dc085f2f9701298122ef5928",
    "oracle quad --a=-1..1 --b=-2..2 --c=-4..4 --format table --workers 1": "33aacbe0ca35f5ec40643dc16113f75f693d033e9045557d838dab78610bae90",
    "oracle quad --a=-1..1 --b=-2..2 --c=-4..4 --format table --workers 2": "33aacbe0ca35f5ec40643dc16113f75f693d033e9045557d838dab78610bae90",
    "oracle quad --a=-1..1 --b=-2..2 --c=-4..4 --format json --workers 1": "8cf15a031cf543febd20115b334ee20801aacd21d816a11362f409bb890ebe87",
    "oracle quad --a=-1..1 --b=-2..2 --c=-4..4 --format json --workers 2": "8cf15a031cf543febd20115b334ee20801aacd21d816a11362f409bb890ebe87",
    "modscan power 2 1 --M 2..60": "c25195f0938f9ea9e51f90ff05daf5b8d92a6b589908f93ad846ba3a24f455d0",
    "modscan quad 1 1 -2 --M 2..60 --stride 3 --workers 2": "5e94432017b321d8d6ab3a47f7d69484492a81c6b072f10a0f5d89232062d687",
    "latticecheck 2 1 1/2 --format table": "78256b6e16f01b276f423908b05369114a96135095c70d7427c801d997eec8e2",
    "latticecheck 2 1 1/2 --format json": "1905edccc54abb5d2940cc0715fe37564f35f277ab9fc438bfe7942c16a3fb9a",
    "latticecheck 1 1 1/2 --format table": "cd93dd2b66057d3d5544200cd639d2179b76d7ed598f62c693a70595e910e322",
    "latticecheck 1 1 1/2 --format json": "91c69f0242d7df62243a6e0f6d1f527bcfc29790d14344de6c8c5d8af53ac0ec",
    "conjugate 1 1 -2 --format table": "e51a4f5311c9b389958846a6f3d6a81c711e796d3e1e36ef78f444ab05990844",
    "conjugate 1 1 -2 --format json": "8d623b8698f163e25c16e198cf241e1efb1e779d9cd667183f5596cd8585f09a",
    "conjugate 2 3 -5 --format table": "0946f7d331b3cb8af9ec1ec73d08f88cc046bf35f7ce7d44fdcd6d9145c2cfdb",
    "conjugate 2 3 -5 --format json": "c02d221e2ee2663b2fa176db6ba1e7e4581bf51b358b44883d5f07d9ae9b7773",
}


@pytest.mark.parametrize("command", sorted(CLI_SHA256))
def test_cli_golden_bytes(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == CLI_SHA256[command]


# ====================================================================
# latticecheck and conjugate
# ====================================================================


def test_latticecheck_holds(capsys):
    assert main(["latticecheck", "2", "1", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "step: 2" in out
    assert "holds: yes" in out
    assert "sample orbit (seed 2): 2 -> 6 -> 26 -> 366 -> 67346 -> 2267809206" in out
    assert "orbit stays in the lattice" in out


def test_latticecheck_fails(capsys):
    assert main(["latticecheck", "1", "1", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "holds: no" in out
    assert "sample orbit" not in out


def test_latticecheck_json(capsys):
    assert main(["latticecheck", "-2", "0", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["step"] == 1 and data["holds"] is True
    assert data["anomaly"] is False
    assert len(data["sample_orbit"]) == 6


def test_latticecheck_usage_errors():
    assert main(["latticecheck", "1", "2"]) == 2  # degree < 2
    assert main(["latticecheck", "2", "1", "x/2"]) == 2  # bad literal
    assert main(["latticecheck", "2", "1", "1/2", "--format", "csv"]) == 2
    assert main(["latticecheck", "2", "1", "1/2", "--workers", "2"]) == 2


def test_conjugate(capsys):
    assert main(["conjugate", "1", "1", "-2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["scale"], data["offset"], data["q"]) == ("1", "1/2", "7/4")
    assert main(["conjugate", "1", "1", "-2"]) == 0
    assert "normal form: x^2 - (7/4)" in capsys.readouterr().out
    assert main(["conjugate", "0", "1", "2"]) == 2
    assert main(["conjugate", "1", "1", "-2", "--format", "svg"]) == 2
    assert main(["conjugate", "1", "1", "-2", "--workers", "2"]) == 2


# ====================================================================
# entry point
# ====================================================================


def test_parser_is_shared_across_main_calls(capsys):
    argv = ["bounds", "--k", "0..6", "--digits", "6", "--format", "csv"]
    cli_module.build_parser.cache_clear()
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    # a usage error part-way through options leaves nothing behind
    assert main(["bounds", "--k", "0..6", "--odd-linear", "--digits", "x"]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh
    assert cli_module.build_parser() is cli_module.build_parser()


def test_entrypoint_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["orbitforge", "classify", "power", "2", "6"])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == 0
    assert "fixed points: -2, 3" in capsys.readouterr().out


def test_workers_flag_starts_no_process(monkeypatch, tmp_path):
    # --workers is checked and then ignored: a fresh interpreter running an
    # oracle grid and a scan of several runs never imports multiprocessing
    walks = []
    real = modular_module._walk_components
    monkeypatch.setattr(
        modular_module, "_walk_components", lambda f, qs: walks.append(qs) or real(f, qs)
    )
    assert len(list(modular_module.max_cycle_scan(PowerMap(2, 1), range(2, 701)))) == 699
    assert len(walks) > 1
    src = str(Path(cli_module.__file__).resolve().parents[1])
    script = f"""
import sys
sys.path.insert(0, {src!r})
from orbitforge.cli import main
codes = [
    main(["oracle", "power", "--m", "2", "--k", "1..40", "--workers", "2",
          "--out", {str(tmp_path / "oracle.txt")!r}]),
    main(["modscan", "power", "2", "1", "--M", "2..700", "--workers", "2",
          "--out", {str(tmp_path / "scan.csv")!r}]),
]
print(codes, "multiprocessing" in sys.modules)
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0] False\n"


# ====================================================================
# start-up: the deciding commands never load numpy
# ====================================================================

# Only array code needs numpy, and modular loads it on the first array
# operation, so a process that runs one deciding command never imports it.
# modular stands a lazy module in for numpy, so that the name "numpy" is in
# sys.modules either way: a loaded numpy shows by its submodules.
NUMPY_FREE = [
    "classify power 3 2",
    "classify power 3 2 --format json",
    "classify quad 1 1 -2",
    "classify quad 1 1 -2 --format json",
    "orbit power 2 2 --seed 0",
    "bounds --k 0..30 --format csv",
    "bounds --k 0..30 --format svg",
    "bounds --k 0..30 --format csv --odd-linear",
    "conjugate 1 1 -2",
    "latticecheck 2 1 1/2",
]
ARRAY_COMMANDS = ["oracle power --m 2,3 --k=-5..20", "modscan power 2 1 --M 2..60"]


def _in_child(lines: str) -> str:
    """stdout of a fresh interpreter that imports orbitforge from this tree."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    script = f"import contextlib, io, sys\nsys.path.insert(0, {src!r})\n{lines}"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "command,loads", [(c, False) for c in NUMPY_FREE] + [(c, True) for c in ARRAY_COMMANDS]
)
def test_only_array_commands_load_numpy(command, loads):
    out = _in_child(
        "from orbitforge import modular\n"
        "from orbitforge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({command.split()!r})\n"
        "print(code, any(name.startswith('numpy.') for name in sys.modules),"
        " modular.np is sys.modules['numpy'])\n"
    )
    assert out == f"0 {loads} True\n"


def test_modular_takes_numpy_already_imported():
    out = _in_child("import numpy\nfrom orbitforge import modular\nprint(modular.np is numpy)\n")
    assert out == "True\n"


def test_missing_numpy_is_named_at_import():
    out = _in_child(
        "import os\n"
        "sys.path[:] = [p for p in sys.path if not os.path.exists(os.path.join(p, 'numpy'))]\n"
        "try:\n"
        "    import orbitforge\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
    )
    assert out == "numpy\n"
