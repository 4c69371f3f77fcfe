"""Acceptance gate: ten end-to-end criteria and three wider oracle gates,
one printed verdict line each.

Every test prints exactly one line, "ACn: PASS (...)" or "ACn: FAIL (...)"
(AC10b and AC10c for the wider gates), carrying the tolerance in force and the
measured runtime against its budget.
Run with `pytest -rA` (or `-s`) to see the lines.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from orbitforge.classify import (
    OrbitClassification,
    band_gap_checks,
    band_integers,
    band_width_decimal,
    band_width_exceeds_one,
    solve_pronic,
)
from orbitforge.cli import main as cli_main
from orbitforge.maps import PowerMap, QuadMap, RationalPoly, conjugacy_of_quad, lattice_check
from orbitforge.modular import functional_graph, max_cycle_scan, naive_graph_oracle
from orbitforge.oracle import cross_check, grid_cycles


@contextmanager
def criterion(name: str, budget_s: float, tolerance: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"{name}: FAIL (tolerance {tolerance}; {elapsed:.2f}s, budget {budget_s:.0f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"{name}: {verdict} (tolerance {tolerance}; {elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name}: runtime {elapsed:.2f}s over budget {budget_s:.0f}s"


NO_CYCLES = OrbitClassification((), (), (), None)


def grid_reports(cls, axes) -> dict:
    """cross_check of every map of a product grid, in order.  One
    grid_cycles call runs the grid, as the oracle subcommand does.  A map
    it does not flag is checked against a harvest with no cycle."""
    flagged = {i: seen for i, _, seen in grid_cycles(cls, axes)}
    maps = (cls(*params) for params in itertools.product(*axes))
    return {m: cross_check(m, flagged.get(i, NO_CYCLES)) for i, m in enumerate(maps)}


def test_ac01_degree_two_grid_equivalence():
    # single-threaded sweep; cycles exist exactly at the pronic and
    # pronic-plus-one shifts, nothing of period 3 or more anywhere
    with criterion("AC1", 10.0, "exact"):
        for the_map, report in grid_reports(PowerMap, [[2], range(-10, 5001)]).items():
            k = the_map.shift
            assert report.agree, (k, report.diff)
            observed = report.observed
            hit = solve_pronic(k)
            if hit is None:
                assert observed.fixed_points == ()
                assert observed.two_cycles == ()
            elif hit[1] == "pronic":
                j = hit[0]
                assert observed.fixed_points == (-j, j + 1)
                assert observed.two_cycles == ()
            else:
                j = hit[0]
                assert observed.fixed_points == ()
                assert [c.points for c in observed.two_cycles] == [(-(j + 1), j)]
            assert observed.higher_cycles == ()


def test_ac02_even_degree_grid():
    with criterion("AC2", 60.0, "exact"):
        for the_map, report in grid_reports(PowerMap, [[4, 6, 8], range(-10, 10001)]).items():
            m, k = the_map.degree, the_map.shift
            assert report.agree, (m, k, report.diff)
            observed = report.observed
            for p in observed.fixed_points:
                assert p**m - p == k
            expected_two = [(-1, 0)] if k == 1 else []
            assert [c.points for c in observed.two_cycles] == expected_two, (m, k)
            assert observed.higher_cycles == ()


def test_ac03_odd_degree_grid():
    with criterion("AC3", 30.0, "exact"):
        reports = grid_reports(PowerMap, [[3, 5, 7], range(-1000, 1001)])
        for the_map, report in reports.items():
            m, k = the_map.degree, the_map.shift
            assert report.agree, (m, k, report.diff)
            observed = report.observed
            for p in observed.fixed_points:
                assert p**m - p == k
            assert observed.two_cycles == ()
            assert observed.higher_cycles == ()
        assert reports[PowerMap(3, 6)].observed.fixed_points == (2,)


def test_ac04_quadratic_grid():
    with criterion("AC4", 120.0, "exact"):
        a_values = [a for a in range(-3, 4) if a]
        reports = grid_reports(QuadMap, [a_values, range(-6, 7), range(-60, 61)])
        for the_map, report in reports.items():
            assert report.agree, (the_map.a, the_map.b, the_map.c, report.diff)
        # worked families inside the grid: shifts of the degree-2 story
        for j in range(0, 8):
            fixed = reports[QuadMap(1, 2, -j * (j + 1))].observed
            assert fixed.fixed_points == tuple(sorted((j, -j - 1)))
            assert fixed.two_cycles == ()
            cyc = reports[QuadMap(1, 2, -j * (j + 1) - 1)].observed
            assert cyc.fixed_points == ()
            assert [c.points for c in cyc.two_cycles] == [tuple(sorted((j - 1, -j - 2)))]
        assert reports[QuadMap(-2, 2, 1)].observed.fixed_points == (1,)
        assert reports[QuadMap(1, 1, -1)].observed.fixed_points == (-1, 1)
        assert [c.points for c in reports[QuadMap(1, 1, -2)].observed.two_cycles] == [(-2, 0)]


def test_ac05_conjugacy_commutation():
    # 200 seeded random quadratics; the push-forward must commute with the
    # normal-form step for 30 iterations.  Divergent orbits double their
    # digit count every step, so past a growth guard the 30-step claim is
    # certified two ways that cover every iteration index exactly: the
    # conjugation identity holds at the level of polynomial coefficients,
    # and the full 30 steps commute in Z_p (p prime, denominators are
    # powers of two and stay invertible).  Bounded orbits, including the
    # worked cyclic examples, run all 30 steps in plain rational arithmetic.
    tol = "exact (coefficient identity + >=10-step rational prefix + 30-step prime-field image)"
    with criterion("AC5", 60.0, tol):
        rng = random.Random(20260814)
        p = (1 << 61) - 1
        inv2 = (p + 1) // 2
        inv4 = inv2 * inv2 % p
        for _ in range(200):
            a = rng.choice([v for v in range(-9, 10) if v])
            b = rng.randint(-30, 30)
            c = rng.randint(-30, 30)
            seed = rng.randint(-20, 20)
            quad = QuadMap(a, b, c)
            con = conjugacy_of_quad(quad)
            q = con.q
            assert [Fraction(a * c) + Fraction(b, 2), Fraction(a * b), Fraction(a * a)] == [
                Fraction(b * b, 4) - q,
                Fraction(a * b),
                Fraction(a * a),
            ]
            s = seed
            r = con.push(s)
            steps = 0
            while steps < 30:
                nxt = quad(s)
                if abs(nxt).bit_length() > 40000:
                    break
                s = nxt
                r = con.normal_step(r)
                assert r == con.push(s)
                steps += 1
            assert steps >= 10, (a, b, c, seed, steps)
            q_p = (b % p) * ((b - 2) % p) % p * inv4 % p
            q_p = (q_p - a * c) % p
            s_p = seed % p
            r_p = (a % p * s_p + b % p * inv2) % p
            for _ in range(30):
                s_p = (a * s_p * s_p + b * s_p + c) % p
                r_p = (r_p * r_p - q_p) % p
                assert r_p == (a % p * s_p + b % p * inv2) % p
        for quad, seed in (
            (QuadMap(1, 2, -12), 3),
            (QuadMap(1, 2, -13), 2),
            (QuadMap(-2, 2, 1), 1),
            (QuadMap(1, 1, -1), 1),
            (QuadMap(1, 1, -2), 0),
        ):
            con = conjugacy_of_quad(quad)
            s = seed
            r = con.push(s)
            for _ in range(30):
                s = quad(s)
                r = con.normal_step(r)
                assert r == con.push(s)


def test_ac06_band_bracketing():
    with criterion("AC6", 60.0, "exact (integer predicates and rational witnesses)"):
        report = band_gap_checks(10**5)
        assert report.ok and report.first_violation is None
        assert report.checked == 10**5 - 1
        for k in range(2, 10**5 + 1):
            got = len(band_integers(2, k))
            if k == 2:
                expected = 3
            elif solve_pronic(k) is not None:
                expected = 2
            else:
                expected = 1
            assert got == expected, (k, got, expected)
            assert band_width_exceeds_one(k), k  # band floor < max fixed point - 1
        for m in (4, 6, 8):
            for k in range(4, 10**4 + 1):
                assert len(band_integers(m, k)) <= 1, (m, k)


def test_ac07_band_width_monotone():
    tol = "certified decimals, error <= 2e-9 per width; separations > 2e-9; width > 1 exact"
    with criterion("AC7", 30.0, tol):
        ks = [2, 10, 100, 1000, 10**4, 10**5, 10**6]
        widths = [band_width_decimal(k, 9) for k in ks]
        for w, err in widths:
            assert err <= Fraction(2, 10**9)
        for (w1, e1), (w2, e2) in zip(widths, widths[1:]):
            assert w1 - e1 > w2 + e2  # strict decrease survives the error bounds
            assert w1 - w2 > Fraction(2, 10**9)
        for k in ks:
            assert band_width_exceeds_one(k), k


def test_ac08_modular_structure_and_performance(tmp_path):
    tol = "exact structure; each million-node scan < 5 s; resume byte-identical"
    with criterion("AC8", 30.0, tol):
        for k in range(0, 11):
            the_map = PowerMap(2, k)
            for modulus in range(2, 201):
                assert functional_graph(the_map, modulus) == naive_graph_oracle(
                    the_map, modulus
                ), (k, modulus)
        # 10**6 splits into 2**6 and 5**6 components; the prime 999983 is
        # one component, so it still walks a million nodes
        for modulus, expected in [(10**6, (6250, 3, 6254, 6)), (999983, (460, 8, 1248, 1422))]:
            start = time.perf_counter()
            rows = list(max_cycle_scan(PowerMap(2, 1), [modulus]))
            scan_elapsed = time.perf_counter() - start
            assert scan_elapsed < 5.0, f"scan mod {modulus} took {scan_elapsed:.2f}s"
            summary = rows[0]
            assert (
                summary.max_cycle_length,
                summary.cycle_count,
                summary.nodes_on_cycles,
                summary.max_tail_length,
            ) == expected
        full = tmp_path / "full.csv"
        part = tmp_path / "part.csv"
        ck = tmp_path / "ck.txt"
        base = ["modscan", "power", "2", "1"]
        assert cli_main(base + ["--M", "2..120", "--out", str(full)]) == 0
        assert cli_main(base + ["--M", "2..60", "--out", str(part), "--checkpoint", str(ck)]) == 0
        assert cli_main(base + ["--M", "2..120", "--out", str(part), "--checkpoint", str(ck)]) == 0
        assert full.read_bytes() == part.read_bytes()


def test_ac09_lattice_certificate():
    with criterion("AC9", 30.0, "exact"):
        poly = RationalPoly((Fraction(2), Fraction(1), Fraction(1, 2)))
        cert = lattice_check(poly)
        assert cert.holds and cert.step == 2
        x = Fraction(2)
        for _ in range(20):
            x = poly(x)
            assert x.denominator == 1 and x.numerator % 2 == 0
        rejected = lattice_check(RationalPoly((Fraction(1), Fraction(1), Fraction(1, 2))))
        assert not rejected.holds


def test_ac10_cli_anomaly_gate(capsys):
    with criterion("AC10", 240.0, "exit code 0 and zero disagreements on every grid"):
        grids = [
            ["oracle", "power", "--m", "2", "--k=-10..5000"],
            ["oracle", "power", "--m", "4,6,8", "--k=-10..10000"],
            ["oracle", "power", "--m", "3,5,7", "--k=-1000..1000"],
            ["oracle", "quad", "--a=-3..3", "--b=-6..6", "--c=-60..60"],
        ]
        for grid in grids:
            rc = cli_main(grid + ["--workers", "4", "--format", "json"])
            payload = json.loads(capsys.readouterr().out)
            assert rc == 0, grid
            assert payload["disagreements"] == []
            assert payload["checked"] == payload["agree"] > 0


def test_ac10b_wide_degree_two_gate(capsys):
    # AC10's degree-2 grid carried on to k = 10**5: more evidence for "no
    # period above 2", in one window graph per batch of maps
    with criterion("AC10b", 30.0, "exit code 0 and zero disagreements"):
        rc = cli_main(["oracle", "power", "--m", "2", "--k=5001..100000", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["disagreements"] == []
        assert payload["checked"] == payload["agree"] == 95000


def test_ac10c_wide_power_and_quad_gates(capsys):
    # the two wide grids of CI's packaging run, in process: every degree
    # from 3 to 8, and the quadratic box of AC4 widened four to eight times
    with criterion("AC10c", 30.0, "exit code 0 and zero disagreements on both grids"):
        grids = [
            (["oracle", "power", "--m", "3,4,5,6,7,8", "--k=-20000..20000"], 6 * 40001),
            (["oracle", "quad", "--a=-6..6", "--b=-12..12", "--c=-500..500"], 12 * 25 * 1001),
        ]
        for grid, count in grids:
            rc = cli_main(grid + ["--format", "json"])
            payload = json.loads(capsys.readouterr().out)
            assert rc == 0, grid
            assert payload["disagreements"] == []
            assert payload["checked"] == payload["agree"] == count
