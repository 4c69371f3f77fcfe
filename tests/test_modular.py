"""Functional graphs over Z_M: structure, oracle agreement, checkpoints."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitforge.modular as modular
from orbitforge.maps import PowerMap, QuadMap, RationalPoly
from orbitforge.modular import (
    CheckpointError,
    functional_graph,
    map_params,
    max_cycle_scan,
    naive_graph_oracle,
    read_checkpoint,
)

nonzero_ints = st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0)


# ====================================================================
# graph structure
# ====================================================================


def test_functional_graph_examples():
    got = functional_graph(PowerMap(2, 0), 2)
    assert got.cycle_lengths == (1, 1)
    assert (got.cycle_count, got.max_tail_length, got.nodes_on_cycles) == (2, 0, 2)

    got = functional_graph(PowerMap(2, 1), 3)  # 0 -> 2 -> 0, 1 -> 0
    assert got.cycle_lengths == (2,)
    assert (got.max_cycle_length, got.max_tail_length) == (2, 1)
    assert got.node_count == 3


def test_functional_graph_rejects_small_modulus():
    with pytest.raises(ValueError):
        functional_graph(PowerMap(2, 1), 1)
    with pytest.raises(ValueError):
        naive_graph_oracle(PowerMap(2, 1), 0)


def test_functional_graph_accepts_plain_callables():
    # a pure rotation is a single M-cycle with no tails
    rotate = lambda x: x + 1  # noqa: E731
    for modulus in (17, 1500):
        got = functional_graph(rotate, modulus)
        assert got == naive_graph_oracle(rotate, modulus)
        assert (got.cycle_lengths, got.max_tail_length) == ((modulus,), 0)


def test_agreement_examples():
    for the_map, modulus in [
        (PowerMap(2, 3), 5),
        (PowerMap(3, 1), 7),
        (QuadMap(1, 1, -2), 4),
    ]:
        assert functional_graph(the_map, modulus) == naive_graph_oracle(the_map, modulus)


@settings(max_examples=120)
@given(
    the_map=st.one_of(
        st.builds(
            PowerMap,
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=-50, max_value=50),
        ),
        st.builds(
            QuadMap, nonzero_ints, st.integers(-20, 20), st.integers(-20, 20)
        ),
    ),
    modulus=st.integers(min_value=2, max_value=300),
)
def test_fast_graph_matches_naive_oracle(the_map, modulus):
    fast = functional_graph(the_map, modulus)
    slow = naive_graph_oracle(the_map, modulus)
    assert fast == slow
    assert fast.nodes_on_cycles == sum(fast.cycle_lengths) <= modulus
    assert fast.cycle_count >= 1
    assert fast.max_cycle_length == max(fast.cycle_lengths)


def test_deep_tail_matches_naive_oracle():
    # x -> x - 1 with 0 fixed: one path of depth M - 1 into a single loop
    step_down = lambda x: x - 1 if x else 0  # noqa: E731
    for modulus in (2, 3, 64, 1500):
        got = functional_graph(step_down, modulus)
        assert got == naive_graph_oracle(step_down, modulus)
        assert (got.cycle_lengths, got.max_tail_length) == ((1,), modulus - 1)


# SHA-256 over the reprs of these summaries, in map-major order
GOLDEN_GRAPH_MAPS = (
    PowerMap(2, 1), PowerMap(3, 2), PowerMap(2, 0), PowerMap(1, 0),
    QuadMap(2, 1, 0), QuadMap(1, 1, -2), QuadMap(-3, 5, 7), QuadMap(4, 2, 0),
)
GOLDEN_GRAPH_MODULI = (
    *range(2, 601), 10007, 10240, 11025, 12167, 14641, 15625, 16384, 16807, 19683, 30030,
)
GOLDEN_GRAPH_DIGEST = "6b97a5264d28f14434ec670fe0682d10d51d40d2e4e512f24c92acb74e2dca0f"


def test_functional_graph_golden_digest():
    digest = hashlib.sha256()
    for the_map in GOLDEN_GRAPH_MAPS:
        for modulus in GOLDEN_GRAPH_MODULI:
            digest.update(repr(functional_graph(the_map, modulus)).encode())
    assert digest.hexdigest() == GOLDEN_GRAPH_DIGEST


def test_big_int_fallback_matches_vectorized_path(monkeypatch):
    the_map = QuadMap(3, -5, 7)
    expected = {m: functional_graph(the_map, m) for m in (2, 3, 17, 101, 256, 397)}
    monkeypatch.setattr(modular, "_NUMPY_LIMIT", 2)  # force the Python path
    for modulus, fast in expected.items():
        assert functional_graph(the_map, modulus) == fast


def test_huge_coefficients_reduce_correctly():
    # coefficient reduction must happen in exact arithmetic, never in int64
    big = PowerMap(2, 10**30)
    small = PowerMap(2, 10**30 % 97)
    assert functional_graph(big, 97) == functional_graph(small, 97)
    assert functional_graph(big, 97) == naive_graph_oracle(big, 97)

    bigq = QuadMap(10**20 + 3, -(10**19) + 1, 10**18)
    smallq = QuadMap((10**20 + 3) % 53, (-(10**19) + 1) % 53, 10**18 % 53)
    assert functional_graph(bigq, 53) == functional_graph(smallq, 53)
    assert functional_graph(bigq, 53) == naive_graph_oracle(bigq, 53)


# ====================================================================
# reduction coherence: iterating commutes with reduction mod M
# ====================================================================


@given(
    the_map=st.builds(
        QuadMap, nonzero_ints, st.integers(-20, 20), st.integers(-20, 20)
    ),
    modulus=st.integers(min_value=2, max_value=97),
    x=st.integers(min_value=-(10**9), max_value=10**9),
)
def test_single_step_reduction_coherence(the_map, modulus, x):
    assert the_map(x) % modulus == the_map(x % modulus) % modulus


def test_orbit_reduction_coherence_on_bounded_orbits():
    """A full 50-step exact orbit, reduced mod M, equals the modular orbit.

    Seeds on or near integer cycles keep every iterate small, so the exact
    side is computable at full depth.
    """
    cases = [
        (PowerMap(2, 7), 2),  # 2 -> -3 -> 2 -> ...
        (PowerMap(2, 6), -2),  # fixed
        (QuadMap(1, 1, -2), 0),  # 0 -> -2 -> 0 -> ...
        (PowerMap(2, 2), 0),  # tail 2 into the fixed point 2
        (PowerMap(4, 2), 1),  # tail 1 into the fixed point -1
    ]
    for the_map, seed in cases:
        for modulus in (2, 3, 5, 7, 10, 97, 1000):
            exact = seed
            residue = seed % modulus
            for _ in range(50):
                exact = the_map(exact)
                residue = the_map(residue) % modulus
                assert exact % modulus == residue


def test_orbit_reduction_coherence_on_divergent_orbits():
    """Same statement on divergent orbits, direct-checked while the exact
    iterate fits a generous size cap (its bit length doubles every step,
    so a fixed depth is what exact arithmetic can reach)."""
    for the_map, seed in [(PowerMap(2, 5), 3), (QuadMap(2, 1, 1), 2)]:
        for modulus in (7, 64, 101):
            exact = seed
            residue = seed % modulus
            steps = 0
            while steps < 50 and abs(exact) < 1 << 40000:
                exact = the_map(exact)
                residue = the_map(residue) % modulus
                assert exact % modulus == residue
                steps += 1
            assert steps >= 10  # the cap still allows a meaningful window


# ====================================================================
# scans and checkpoints
# ====================================================================


def test_map_params():
    assert map_params(PowerMap(2, 1)) == (2, 1)
    assert map_params(QuadMap(1, 1, -2)) == (1, 1, -2)
    with pytest.raises(TypeError):
        map_params(RationalPoly([1, 0, 1]))


def test_scan_rows_and_checkpoint_round_trip(tmp_path):
    ck = tmp_path / "scan.ck"
    rows = list(max_cycle_scan(PowerMap(2, 1), range(2, 21), checkpoint_path=ck))
    assert [r.modulus for r in rows] == list(range(2, 21))
    for row in rows:
        assert row.summary == naive_graph_oracle(PowerMap(2, 1), row.modulus)
        assert row.params == (2, 1)
        assert row.elapsed >= 0
    assert read_checkpoint(ck, PowerMap(2, 1)) == 20

    # resuming skips everything at or below the recorded modulus
    more = list(max_cycle_scan(PowerMap(2, 1), range(2, 31), checkpoint_path=ck))
    assert [r.modulus for r in more] == list(range(21, 31))
    assert read_checkpoint(ck, PowerMap(2, 1)) == 30

    # fully covered: nothing to do, checkpoint untouched
    assert list(max_cycle_scan(PowerMap(2, 1), range(2, 31), checkpoint_path=ck)) == []
    assert read_checkpoint(ck, PowerMap(2, 1)) == 30


def test_checkpoint_quad_round_trip(tmp_path):
    ck = tmp_path / "scan.ck"
    list(max_cycle_scan(QuadMap(1, 1, -2), [5, 3, 9], checkpoint_path=ck))
    assert read_checkpoint(ck, QuadMap(1, 1, -2)) == 9
    line = ck.read_text().splitlines()[0]
    assert [int(f) for f in line.split()][:4] == [1, 1, -2, 3]


def test_checkpoint_errors(tmp_path):
    ck = tmp_path / "scan.ck"
    ck.write_text("2 1 10 2 1\n")
    with pytest.raises(CheckpointError):
        read_checkpoint(ck, PowerMap(2, 2))  # parameter mismatch
    ck.write_text("2 1 ten 2 1\n")
    with pytest.raises(CheckpointError):
        read_checkpoint(ck, PowerMap(2, 1))
    ck.write_text("2 1 10 2\n")
    with pytest.raises(CheckpointError):
        read_checkpoint(ck, PowerMap(2, 1))  # wrong field count
    ck.write_text("2 1 10 2 1\n2 1 9 2 1\n")
    with pytest.raises(CheckpointError):
        read_checkpoint(ck, PowerMap(2, 1))  # out of order
    ck.write_text("")
    assert read_checkpoint(ck, PowerMap(2, 1)) is None


def test_scan_rejects_bad_moduli():
    with pytest.raises(ValueError):
        list(max_cycle_scan(PowerMap(2, 1), [5, 1]))


def test_scan_empty_range_yields_nothing():
    assert list(max_cycle_scan(PowerMap(2, 1), [])) == []


def test_scan_parallel_matches_serial():
    serial = [r.summary for r in max_cycle_scan(PowerMap(2, 1), range(2, 80))]
    parallel = [
        r.summary for r in max_cycle_scan(PowerMap(2, 1), range(2, 80), workers=3)
    ]
    assert serial == parallel


def test_scan_deduplicates_and_sorts_moduli():
    rows = list(max_cycle_scan(PowerMap(2, 1), [7, 3, 7, 5]))
    assert [r.modulus for r in rows] == [3, 5, 7]
