"""Command-line surface: rendering, grids, exit codes, file handling."""

import hashlib
import json
import sys

import pytest

import orbitforge.oracle as oracle_module
from orbitforge.cli import (
    BOUNDS_CSV_HEADER,
    MODSCAN_CSV_HEADER,
    entrypoint,
    main,
    parse_grid,
)

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
    assert main(["classify", "power", "0", "7"]) == 2  # degree < 1
    assert main([]) == 2
    assert main(["nonsense"]) == 2


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


def test_oracle_env_worker_default(monkeypatch, capsys):
    monkeypatch.setenv("ORBITFORGE_WORKERS", "2")
    assert main(["oracle", "power", "--m", "2", "--k", "1..20", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == 20


def test_oracle_usage_errors():
    assert main(["oracle", "power", "--m", "2"]) == 2  # missing --k
    assert main(["oracle", "power", "--m", "0..1", "--k", "1"]) == 2
    assert main(["oracle", "quad", "--a", "0", "--b", "1", "--c", "1"]) == 2
    assert main(["oracle", "power", "--m", "2", "--k", "1..5", "--workers", "0"]) == 2


def test_oracle_disagreement_exits_one(monkeypatch, capsys):
    # plant a wrong prediction: the gate must trip and report it
    from orbitforge.classify import classify_power

    def wrong(power):
        real = classify_power(power)
        return type(real)((99,), real.two_cycles, (), real.behavior)

    monkeypatch.setattr(oracle_module, "classify_power", wrong)
    assert main(["oracle", "power", "--m", "2", "--k", "6", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["disagreements"] and "fixed points differ" in data["disagreements"][0]["diff"]


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


def test_modscan_checkpoint_without_csv_restarts(tmp_path, capsys):
    ck = tmp_path / "ck.txt"
    out = tmp_path / "rows.csv"
    assert main(["modscan", "power", "2", "1", "--M", "2..10", "--checkpoint", str(ck)]) == 0
    capsys.readouterr()
    # the checkpoint covers 2..10 but no CSV exists to extend: start fresh
    assert (
        main(
            ["modscan", "power", "2", "1", "--M", "2..10",
             "--out", str(out), "--checkpoint", str(ck)]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == MODSCAN_CSV_HEADER
    assert len(lines) == 10


def test_modscan_checkpoint_failures(tmp_path, capsys):
    ck = tmp_path / "ck.txt"
    ck.write_text("garbage here\n")
    rc = main(["modscan", "power", "2", "1", "--M", "2..5", "--checkpoint", str(ck)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err

    ck.write_text("3 1 10 2 1\n")  # record for a different map
    rc = main(["modscan", "power", "2", "1", "--M", "2..5", "--checkpoint", str(ck)])
    assert rc == 3


def test_modscan_usage_errors():
    assert main(["modscan", "power", "2", "1", "--M", "2..5", "--stride", "0"]) == 2
    assert main(["modscan", "power", "2", "1", "--M", "2..5", "--format", "json"]) == 2
    assert main(["modscan", "power", "2", "1", "--M", "1..3"]) == 2  # modulus < 2


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


def test_conjugate(capsys):
    assert main(["conjugate", "1", "1", "-2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["scale"], data["offset"], data["q"]) == ("1", "1/2", "7/4")
    assert main(["conjugate", "1", "1", "-2"]) == 0
    assert "normal form: x^2 - (7/4)" in capsys.readouterr().out
    assert main(["conjugate", "0", "1", "2"]) == 2


# ====================================================================
# entry point
# ====================================================================


def test_entrypoint_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["orbitforge", "classify", "power", "2", "6"])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == 0
    assert "fixed points: -2, 3" in capsys.readouterr().out
