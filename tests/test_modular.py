"""Functional graphs over Z_M: structure, oracle agreement, checkpoints."""

import hashlib
import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitforge.modular as modular
from orbitforge.kernel import iroot
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


def test_int_power_matches_pow():
    for modulus in (1, 2, 12, 97, 1024, 65537, 131071):
        x = np.arange(modulus, dtype=np.int64)
        sample = range(0, modulus, max(1, modulus // 500))
        for e in range(1, 41):
            got = modular.int_power(x, e, modulus)
            want = [pow(i, e, modulus) for i in sample]
            assert [int(got[i]) for i in sample] == want, (modulus, e)
    # residues just below 2**31 - 1, whose products come nearest the int64
    # headroom that _NUMPY_LIMIT relies on
    top = 2**31 - 1
    residues = list(range(top - 40, top))
    x = np.array(residues, dtype=np.int64)
    for e in range(1, 41):
        assert modular.int_power(x, e, top).tolist() == [pow(i, e, top) for i in residues], e
    # unreduced: values whose e-th power lies just under 2**62, both signs
    for e in range(1, 62):
        r = iroot(2**62 - 1, e)
        values = [v for u in (r, r - 1, 1, 0) for v in (u, -u)]
        got = modular.int_power(np.array(values, dtype=np.int64), e)
        assert got.tolist() == [v**e for v in values], e


def test_functional_graph_accepts_plain_callables():
    # a pure rotation is a single M-cycle with no tails
    rotate = lambda x: x + 1  # noqa: E731
    for modulus in (17, 1500):
        got = functional_graph(rotate, modulus)
        assert got == naive_graph_oracle(rotate, modulus)
        assert (got.cycle_lengths, got.max_tail_length) == ((modulus,), 0)
    # a component walked alone: one cycle of 2**15 nodes, which contraction
    # takes many rounds to bring down to one node
    got = functional_graph(rotate, 2**15)
    assert (got.cycle_lengths, got.max_tail_length) == ((2**15,), 0)


class _Tripled(PowerMap):
    """A PowerMap subclass that redefines the map: 3*(x**degree - shift)."""

    def __call__(self, x: int) -> int:
        return 3 * (x**self.degree - self.shift)


class _PlainQuad(QuadMap):
    """A QuadMap subclass that keeps its parent's map."""


def test_agreement_examples():
    # a subclass is walked over the whole ring, as it may redefine the map
    for the_map, moduli in [
        (PowerMap(2, 3), [5]),
        (PowerMap(3, 1), [7]),
        (QuadMap(1, 1, -2), [4]),
        (_Tripled(2, 1), range(2, 120)),
        (_PlainQuad(1, 1, -2), range(2, 120)),
    ]:
        want = [naive_graph_oracle(the_map, modulus) for modulus in moduli]
        assert [functional_graph(the_map, modulus) for modulus in moduli] == want
        assert list(max_cycle_scan(the_map, moduli)) == want


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
    # a component walked alone: one node peeled per round, M - 1 rounds
    got = functional_graph(step_down, 2**14 + 1)
    assert (got.cycle_lengths, got.max_tail_length) == ((1,), 2**14)


@st.composite
def successor_tables(draw):
    """A random function or permutation of range(n), n >= 2 like every
    component, some with planted self-loops."""
    n = draw(st.integers(2, 150))
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["function", "permutation", "self-loops"]))
    if kind == "permutation":
        succ = list(range(n))
        rnd.shuffle(succ)
    else:
        succ = [rnd.randrange(n) for _ in range(n)]
    if kind == "self-loops":
        for x in rnd.sample(range(n), rnd.randint(1, n)):
            succ[x] = x
    return succ


def _oracle_part(succ):
    """(cycle-length counts, max tail) of x -> succ[x], from naive_graph_oracle."""
    summary = naive_graph_oracle(succ.__getitem__, len(succ))
    counts = {}
    for length in summary.cycle_lengths:
        counts[length] = counts.get(length, 0) + 1
    return counts, summary.max_tail_length


# the settings of the switch from peeling to pointer jumping: the jump at
# round 0, once the frontier is below 8 nodes (mid-peel on most tables),
# and never
JUMP_REGIMES = (
    {"_JUMP_FRONTIER": 2**62, "_JUMP_NODES": 2**62},
    {"_JUMP_FRONTIER": 8, "_JUMP_NODES": 2**62},
    {"_JUMP_FRONTIER": 0},
)


def _walk_both_ways(tables):
    """_array_walk of tables as one batch, and of each table alone."""
    starts = np.cumsum([0] + [len(succ) for succ in tables[:-1]])
    batch = np.concatenate([np.array(succ, dtype=np.int64) + s for succ, s in zip(tables, starts)])
    # each table alone, as a component of at least _BATCH_NODES nodes is
    alone = [modular._array_walk(np.array(succ, dtype=np.int64))[0] for succ in tables]
    return modular._array_walk(batch, starts), alone


@settings(max_examples=60, deadline=None)
@given(tables=st.lists(successor_tables(), min_size=1, max_size=6))
def test_batched_walk_matches_naive_oracle(tables):
    expected = [_oracle_part(succ) for succ in tables]
    for regime in JUMP_REGIMES:
        with pytest.MonkeyPatch.context() as patch:
            for name, value in regime.items():
                patch.setattr(modular, name, value)
            assert _walk_both_ways(tables) == (expected, expected), regime


@st.composite
def planted_permutations(draw):
    """A permutation of range(n), n up to 2000, with cycles of up to 256
    nodes (several contraction rounds each) on shuffled nodes."""
    n = draw(st.integers(2, 2000))
    rnd = draw(st.randoms(use_true_random=False))
    nodes = list(range(n))
    rnd.shuffle(nodes)
    succ = [0] * n
    i = 0
    while i < n:
        cycle = nodes[i : i + rnd.randint(1, 256)]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            succ[x] = y
        i += len(cycle)
    return succ


@settings(max_examples=20, deadline=None)
@given(tables=st.lists(planted_permutations(), min_size=1, max_size=3))
def test_contraction_matches_naive_oracle_on_permutations(tables):
    expected = [_oracle_part(succ) for succ in tables]
    assert _walk_both_ways(tables) == (expected, expected)


def test_walk_writes_into_no_table_it_is_given(monkeypatch):
    # a permutation goes to contraction as is, and a peel that jumps in
    # round 0 (fewer than _JUMP_FRONTIER leaves, at most _JUMP_NODES
    # nodes) restricts a copy: neither may write into succ
    jumps = []
    real = modular._jump
    monkeypatch.setattr(
        modular, "_jump", lambda s, level, rounds: jumps.append(rounds) or real(s, level, rounds)
    )
    rng = np.random.default_rng(24)
    permutation = rng.permutation(3000).tolist()
    # x -> x - 1 on 1..999 into the 2-cycle 0 <-> 1, plus three leaves into 500
    tails = [1, 0, *range(1, 999), 500, 500, 500]
    for tables, jumped in (([permutation], []), ([permutation, [1, 0]], []), ([tails], [0])):
        starts = np.cumsum([0] + [len(t) for t in tables[:-1]])
        succ = np.concatenate([np.array(t, dtype=np.int64) + s for t, s in zip(tables, starts)])
        given = succ.copy()
        jumps.clear()
        walk = modular._array_walk
        walked = walk(succ) if len(tables) == 1 else walk(succ, starts)
        assert walked == [_oracle_part(t) for t in tables]
        assert jumps == jumped
        assert np.array_equal(succ, given)


def test_contraction_fixed_cases():
    n = 3001
    rnd = random.Random(19)
    order = list(range(n))
    rnd.shuffle(order)
    long_cycle = [0] * n
    for x, y in zip(order, order[1:] + order[:1]):
        long_cycle[x] = y
    cases = [
        (list(range(n)), ({1: n}, 0)),  # the identity
        ([x ^ 1 for x in range(n - 1)], ({2: (n - 1) // 2}, 0)),  # all 2-cycles
        (long_cycle, ({n: 1}, 0)),
    ]
    tables = [succ for succ, _ in cases]
    expected = [part for _, part in cases]
    assert _walk_both_ways(tables) == (expected, expected)
    # one long cycle of 2**17 nodes, walked alone
    order = np.random.default_rng(19).permutation(2**17)
    succ = np.empty(2**17, dtype=np.int64)
    succ[order] = np.roll(order, -1)
    assert modular._array_walk(succ) == [({2**17: 1}, 0)]


def test_permutation_summaries_pinned():
    # 2x^2 + x permutes every Z_{2^e}: 512 fixed points, then cycles of
    # lengths 2, 8, 32, ..., 2**17, half as many of each as of the one
    # before; pinned from min-label pointer doubling, an independent
    # labelling
    got = functional_graph(QuadMap(2, 1, 0), 2**18)
    counts = {length: got.cycle_lengths.count(length) for length in set(got.cycle_lengths)}
    assert counts == {
        1: 512, 2: 256, 8: 128, 32: 64, 128: 32, 512: 16, 2048: 8, 8192: 4, 32768: 2, 131072: 1
    }
    assert (got.cycle_count, got.max_cycle_length, got.max_tail_length) == (1023, 131072, 0)
    # x^3 - 2 permutes Z_p for p = 2 mod 3; the largest single component
    # measured
    got = functional_graph(PowerMap(3, 2), 999983)
    assert (got.cycle_count, got.max_cycle_length, got.max_tail_length) == (15, 788429, 0)
    assert got.cycle_lengths == (
        1, 2, 22, 26, 28, 33, 270, 536, 560, 14111, 21196, 25854, 27176, 121739, 788429
    )


@pytest.mark.parametrize(
    "the_map",
    [
        PowerMap(1, 3),
        PowerMap(1, -5),
        PowerMap(2, 1),
        PowerMap(5, -7),
        QuadMap(2, 1, 0),
        QuadMap(1, 1, -2),
        QuadMap(-3, 5, 7),
        QuadMap(1, 0, 0),
    ],
)
def test_successor_tables_match_python(the_map):
    # 16411 is a prime component walked alone
    for modulus in (2, 3, 97, 1000, 2**12, 16411, 2**16 + 1):
        want = [the_map(x) % modulus for x in range(modulus)]
        assert modular._successors(the_map, modulus).tolist() == want, modulus


@pytest.mark.parametrize("the_map", [QuadMap(-1, -1, -1), QuadMap(-3, 5, 7), PowerMap(5, -7)])
def test_successor_tables_at_the_unreduced_bound(the_map):
    # a*x**(m-1) + b times x is left unreduced while modulus**3 <= 2**63;
    # at 2**21 + 1, -x^2 - x - 1 would reach (M - 1)*M*(M - 1) > 2**63 at
    # x = M - 1.  The residues at both ends and a sample of the rest.
    for modulus in (2**21, 2**21 + 1):
        xs = [*range(2**10), *random.Random(5).sample(range(modulus), 2**10)]
        xs += range(modulus - 2**10, modulus)
        got = modular._successors(the_map, modulus)[xs].tolist()
        assert got == [the_map(x) % modulus for x in xs], modulus


@settings(max_examples=200)
@given(
    sizes=st.lists(
        st.one_of(st.just(0), st.integers(1, modular._BATCH_NODES // 3), st.integers(1, 2**15)),
        max_size=40,
    )
)
@example(sizes=[modular._BATCH_NODES // 2] * 3)  # two items fill a range exactly
@example(sizes=[2**15, 0, 5])
def test_batches_cut_in_order_within_the_budget(sizes):
    ranges = list(modular.batch_ranges(np.array(sizes, dtype=np.int64)))
    lists = [list(range(lo, hi)) for lo, hi in ranges]
    assert [i for batch in lists for i in batch] == list(range(len(sizes)))
    assert all(lists)
    budget = modular._BATCH_NODES
    for n, batch in enumerate(lists):
        total = sum(sizes[i] for i in batch)
        # only a range's first item takes it over the budget
        assert total <= budget or total == sizes[batch[0]] > budget
        if n:
            assert sizes[batch[0]] > 0
            # no cut comes early: the range before could not take this item
            assert sum(sizes[i] for i in lists[n - 1]) + sizes[batch[0]] > budget


integer_maps = st.one_of(
    st.builds(PowerMap, st.integers(1, 6), st.integers(-50, 50)),
    st.builds(QuadMap, nonzero_ints, st.integers(-20, 20), st.integers(-20, 20)),
)


def _has_two_primes(modulus):
    """True when modulus has at least two distinct prime factors."""
    p = next(d for d in range(2, modulus + 1) if modulus % d == 0)
    while modulus % p == 0:
        modulus //= p
    return modulus > 1


def _whole_ring(the_map):
    """The same map as a plain callable, which functional_graph walks unsplit."""
    return lambda x: the_map(x)


# the identity (M fixed points), a deep 2-adic tail at 2^a*3^b, and a map
# that permutes every Z_{2^e}
SPLIT_EXAMPLES = (
    (PowerMap(1, 0), 2310),
    (PowerMap(1, 0), 30030),
    (QuadMap(4, 2, 0), 2**5 * 3**3),
    (QuadMap(4, 2, 0), 2**12 * 3**5),
    (QuadMap(2, 1, 0), 2**7 * 15),
    (QuadMap(2, 1, 0), 2**14 * 5),
)


@settings(max_examples=30, deadline=None)
@given(the_map=integer_maps, modulus=st.integers(6, 10**5).filter(_has_two_primes))
def test_split_matches_whole_ring_walk(the_map, modulus):
    assert functional_graph(the_map, modulus) == functional_graph(_whole_ring(the_map), modulus)


@settings(max_examples=60, deadline=None)
@given(the_map=integer_maps, modulus=st.integers(6, 2000).filter(_has_two_primes))
def test_split_matches_naive_oracle_at_composite_moduli(the_map, modulus):
    assert functional_graph(the_map, modulus) == naive_graph_oracle(the_map, modulus)


def test_split_examples():
    for the_map, modulus in SPLIT_EXAMPLES:
        split = functional_graph(the_map, modulus)
        assert split == functional_graph(_whole_ring(the_map), modulus), (the_map, modulus)
        if modulus <= 2000:
            assert split == naive_graph_oracle(the_map, modulus), (the_map, modulus)
    identity = functional_graph(PowerMap(1, 0), 30030)
    assert (identity.cycle_lengths, identity.max_tail_length) == ((1,) * 30030, 0)
    assert functional_graph(QuadMap(4, 2, 0), 2**12 * 3**5).max_tail_length == 12


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
    # one call per modulus, then one scan per map that walks each component once
    for scan in (
        lambda the_map: (functional_graph(the_map, m) for m in GOLDEN_GRAPH_MODULI),
        lambda the_map: max_cycle_scan(the_map, GOLDEN_GRAPH_MODULI),
    ):
        digest = hashlib.sha256()
        for the_map in GOLDEN_GRAPH_MAPS:
            for summary in scan(the_map):
                digest.update(repr(summary).encode())
        assert digest.hexdigest() == GOLDEN_GRAPH_DIGEST


def test_big_int_fallback_matches_vectorized_path(monkeypatch):
    the_map = QuadMap(3, -5, 7)
    moduli = (2, 3, 17, 101, 256, 397, 360, 1001, 30030, 16411)
    expected = {m: functional_graph(the_map, m) for m in moduli}
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

    class Renamed(PowerMap):
        pass

    @dataclass(frozen=True)
    class Tagged(PowerMap):
        tag: int = 0

    # a subclass keeps its family's fields, and carries any it adds
    assert map_params(Renamed(2, 1)) == (2, 1)
    assert map_params(Tagged(2, 1, 7)) == (2, 1, 7)
    with pytest.raises(TypeError):
        map_params(RationalPoly([1, 0, 1]))


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
    for second in (9, 10):  # a modulus below the last, and one repeated
        ck.write_text(f"2 1 10 2 1\n2 1 {second} 2 1\n")
        with pytest.raises(CheckpointError, match="moduli out of order"):
            read_checkpoint(ck, PowerMap(2, 1))
    ck.write_text("")
    assert read_checkpoint(ck, PowerMap(2, 1)) is None


def test_checkpoint_skips_blank_lines(tmp_path):
    ck = tmp_path / "scan.ck"
    ck.write_text("2 1 10 2 1\n\n  \n2 1 11 1 2\n")
    assert read_checkpoint(ck, PowerMap(2, 1)) == 11


def test_scan_rejects_bad_moduli():
    with pytest.raises(ValueError):
        list(max_cycle_scan(PowerMap(2, 1), [5, 1]))


def test_scan_empty_range_yields_nothing():
    assert list(max_cycle_scan(PowerMap(2, 1), [])) == []


def _prime_powers_upto(limit):
    """The prime powers p**e <= limit, e >= 1, ascending."""
    found = []
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            q = p
            while q <= limit:
                found.append(q)
                q *= p
    return sorted(found)


def test_scan_walks_each_prime_power_once_per_call(monkeypatch):
    walked = []
    real = modular._successors
    monkeypatch.setattr(modular, "_successors", lambda f, q: walked.append(q) or real(f, q))
    for _ in range(2):  # no walked part outlives its scan
        walked.clear()
        summaries = list(max_cycle_scan(PowerMap(2, 1), range(2, 1201)))
        assert len(summaries) == 1199
        assert sorted(walked) == _prime_powers_upto(1200)


@pytest.mark.parametrize(
    "the_map, top, walks",
    [(PowerMap(2, 1), 1200, 8), (PowerMap(2, 1), 20000, 1534), (QuadMap(2, 1, 0), 5000, 110)],
)
def test_scan_cuts_the_same_runs(monkeypatch, the_map, top, walks):
    # a run walks its new components in one call: the count of calls pins
    # where batch_ranges cuts the moduli 2..top into runs
    calls = []
    real = modular._walk_components
    monkeypatch.setattr(
        modular, "_walk_components", lambda f, qs: calls.append(qs) or real(f, qs)
    )
    assert len(list(max_cycle_scan(the_map, range(2, top + 1)))) == top - 1
    assert len(calls) == walks


_RANDOM_MODULI = [
    sorted(random.Random(seed).sample(range(2, top), 60))
    for seed, top in enumerate((2000, 8000, 30000, 70000))
]


@pytest.mark.parametrize("the_map", [PowerMap(2, 1), QuadMap(2, 1, 0)])
@pytest.mark.parametrize(
    "moduli",
    # 16411 is a prime above 2**14; the moduli after it bring no new
    # component, so they join its run however far over the budget it is
    [[2, 3, 6, 16411, 32822, 49233, 98466], *_RANDOM_MODULI],
)
def test_scan_cuts_where_batch_ranges_cuts(monkeypatch, the_map, moduli):
    # the scan's online cut against batch_ranges over the moduli's counts
    # of nodes in components no earlier modulus had
    seen: set[int] = set()
    new = []
    for m in moduli:
        new.append([q for q in modular._components(the_map, m) if q not in seen])
        seen.update(new[-1])
    sizes = np.array([sum(qs) for qs in new], dtype=np.int64)
    expected = [[q for qs in new[lo:hi] for q in qs] for lo, hi in modular.batch_ranges(sizes)]
    calls = []
    real = modular._walk_components
    monkeypatch.setattr(
        modular, "_walk_components", lambda f, qs: calls.append(qs) or real(f, qs)
    )
    assert len(list(max_cycle_scan(the_map, moduli))) == len(moduli)
    assert calls == expected


@pytest.mark.parametrize("the_map", [PowerMap(3, 2), QuadMap(2, 1, 0)])
def test_scan_reuses_a_big_component_across_runs(monkeypatch, the_map):
    # 16411 is a prime above 2**14: the first run walks it alone, and the
    # multiples of it in the next run take its part from the scan
    moduli = [16411, 16412, 32822, 49233, 65644]
    expected = [functional_graph(the_map, m) for m in moduli]
    walked = []
    real = modular._successors
    monkeypatch.setattr(modular, "_successors", lambda f, q: walked.append(q) or real(f, q))
    assert list(max_cycle_scan(the_map, moduli)) == expected
    assert walked.count(16411) == 1

def test_scan_cuts_runs_as_it_goes(monkeypatch):
    # the first summary of a long scan needs the components of its first
    # run, not of every modulus
    seen = []
    real = modular._components
    monkeypatch.setattr(modular, "_components", lambda f, m: seen.append(m) or real(f, m))
    scan = max_cycle_scan(PowerMap(2, 1), range(2, 10**5 + 2))
    assert next(scan) == naive_graph_oracle(PowerMap(2, 1), 2)
    assert 0 < len(seen) < 10**4


def test_scan_deduplicates_and_sorts_moduli():
    summaries = list(max_cycle_scan(PowerMap(2, 1), [7, 3, 7, 5]))
    assert summaries == [naive_graph_oracle(PowerMap(2, 1), m) for m in (3, 5, 7)]
