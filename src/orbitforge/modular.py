"""Cycle structure of the map families over Z_M.

Iterating any map on Z_M yields a functional graph: every node has one
out-edge, so the graph is a disjoint union of cycles with trees hanging off
them.  An exact PowerMap or QuadMap is an integer polynomial, so by the
Chinese remainder theorem its graph on Z_M is the direct product of its
graphs on Z_q for the prime powers q exactly dividing M: a cycle of length
l1 and one of length l2 multiply into gcd(l1, l2) cycles of length
lcm(l1, l2), and a product node's tail is the longest of its components'
tails.  So functional_graph measures each prime-power component and
combines them; its cost follows the largest prime-power factor of M, not
M.  Any other callable, subclasses included (maps.int_coefficients), has
its whole ring walked as one component.

Each component builds its successor table as an int64 array (for an
integer polynomial below 2**31 in numpy, every product inside int64; else
by exact Python calls).  _array_walk then works in whole-array rounds.  It
peels the nodes of in-degree 0, level by level: a node whose longest
chain of predecessors has h edges goes in round h + 1.  With T the
longest tail, a node at distance d from its cycle has h <= T - d, and the
node next to the cycle on a longest tail has h = T - 1, so a full peel
takes T rounds, however few nodes each one peels.  So once the frontier is
small, the rest is finished by pointer jumping: the unpeeled nodes are
closed under the map, their cycles are the image of its 2**s-th power
once 2**s reaches their number, and Wyllie's list ranking gives each
node its distance to them.  After t rounds every unpeeled node has
h >= t, so a longest tail is t plus the greatest distance found.

The survivors are the cycle nodes, and contraction measures their cycles (a
permutation goes as is).  Each round keeps the nodes whose successor is a
strict local minimum of a fixed injective hash along their cycle: every cycle
of two nodes or more has one, and no two kept nodes are adjacent.  Each kept
node walks on to the next kept one, adding up the nodes it passes, and stands
for them in the next round, so each round at least halves the nodes; a node
that loops onto itself is a whole cycle, as long as its weight.

A round costs numpy tens of microseconds whatever its size, more than a
small graph's whole work, so small graphs are peeled many at a time: their
tables are laid end to end as the blocks of one graph, each offset by its
start.  This module owns that block-graph layer, which the oracle's escape
windows share: peel, batch_ranges, which cuts the windows' sizes into index
ranges and is the reference for the scan's cut, and the budget _BATCH_NODES.
Each node records its peel round, or the tail bound a jump gives it, so a
block's longest tail is its highest level; a cycle's block is found from
one of its nodes.  The oracle's windows keep the full peel: their tails
into the sink are short, and with the jump AC10b's grid took 2.77 s
against 2.45 s.  A component of _BATCH_NODES nodes or more is walked
alone, with one bit per node in the peel and no block lookup.  A call for
one modulus walks its own components as one batch.  max_cycle_scan walks
each component once per scan: it cuts the moduli into runs whose new
components fill one batch, walks a run's batch before the run's first
summary, and hands each modulus the walked parts it combines.  The cut is
batch_ranges' rule applied as the moduli come, one comparison each: a run
closes at the first modulus whose new components would take it past the
budget, so the first summary needs the components of the first run only.

naive_graph_oracle recomputes the same summary by per-node iteration with
no shared machinery, as an independent witness for small M.

This module is the one owner of numpy (classify and oracle take np from
it), loaded on the first array operation.  It owns the checkpoint format
(map_params, checkpoint_line, read_checkpoint); the modscan command in the
CLI owns the resume protocol that writes and reads it.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass, fields
from math import gcd
from pathlib import Path
from typing import Iterable, Iterator

from .maps import PowerMap, QuadMap, int_coefficients


def _numpy():
    """numpy as imported, or a stdlib LazyLoader module in its place that
    imports it on the first attribute access, which is not thread-safe on
    Python 3.10 and 3.11; orbitforge starts no threads."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _numpy()

__all__ = [
    "FunctionalGraphSummary",
    "CheckpointError",
    "checkpoint_line",
    "functional_graph",
    "naive_graph_oracle",
    "max_cycle_scan",
    "map_params",
    "read_checkpoint",
]

# above this modulus, residue products no longer fit in int64
_NUMPY_LIMIT = 1 << 31
# node budget of one batch from batch_ranges, for modscan's components and
# the oracle's windows alike; a component this large is walked alone.  A
# larger budget spreads numpy's per-round cost over more graphs and holds
# more memory at once.  At 2**13, modscan-many ran about 15% slower, and
# oracle-gate read peak_rss_mib 36.71 against 37.11 at 2**14, wall_s alike.
_BATCH_NODES = 1 << 14
# a peel with jump is finished by pointer jumping once its frontier is
# below _JUMP_FRONTIER nodes and at most _JUMP_NODES nodes are unpeeled:
# a jump costs about 2*log2 of that many whole-array rounds, a peel round
# about 15 us however few nodes it peels
_JUMP_FRONTIER = 512
_JUMP_NODES = 1 << 15
# Knuth's multiplicative hash, a prime near 2**32 over the golden ratio:
# node number times it, mod 2**32, is injective below 2**32, as the
# multiplier is odd, and scatters runs of consecutive numbers; a Python int
# (uint32 *= int stays uint32), so that importing this module loads no numpy
_HASH = 0x9E3779B1


@dataclass(frozen=True)
class FunctionalGraphSummary:
    modulus: int
    node_count: int
    cycle_count: int
    cycle_lengths: tuple[int, ...]  # ascending multiset
    max_cycle_length: int
    max_tail_length: int
    nodes_on_cycles: int


def int_power(x: np.ndarray, e: int, modulus: int | None = None) -> np.ndarray:
    """x**e elementwise for int64 x and e >= 1, reduced after each product
    when a modulus is given, like pow(x, e, modulus); e = 1 returns x.

    Square-and-multiply from the lowest set bit of e: no squaring follows
    the highest bit, so no power above the e-th is formed.  Products are
    reduced by floor division (_reduce); nothing wraps while |x|**e fits
    in int64, or while 0 <= x < modulus < 2**31.
    """
    while not e & 1:
        x = x * x if modulus is None else _reduce(x * x, modulus)
        e >>= 1
    result = x
    e >>= 1
    while e:
        x = x * x if modulus is None else _reduce(x * x, modulus)
        if e & 1:
            result = result * x if modulus is None else _reduce(result * x, modulus)
        e >>= 1
    return result


def _reduce(v: np.ndarray, modulus: int, spare: np.ndarray | None = None) -> np.ndarray:
    """v %= modulus as v -= (v // modulus)*modulus, the quotient in spare:
    numpy's // by a scalar needs no divide instruction, and its % does."""
    q = np.floor_divide(v, modulus, spare)
    q *= modulus
    v -= q
    return v


def _successors(the_map, modulus: int) -> np.ndarray:
    """The int64 array of the_map(x) % modulus for x in Z_modulus."""
    form = int_coefficients(the_map)
    if modulus < _NUMPY_LIMIT and form is not None:
        m, a, b, c = form
        a, b, c = a % modulus, b % modulus, c % modulus
        x = np.arange(modulus, dtype=np.int64)
        # ((a*x**(m-1) + b)*x + c) % modulus by Horner, in place, factors
        # below modulus < 2**31: the sum, below modulus**2, is reduced before
        # its product with x if modulus**3 > 2**63.  Degree 1 is (a + b)*x + c.
        if m == 1:
            acc = x  # x is not needed again
            acc *= (a + b) % modulus
        else:
            acc = int_power(x, m - 1, modulus)
            if acc is x:  # m = 2: int_power returns x itself
                acc = x.copy()
            # a PowerMap (a = 1, b = 0) makes no pass for either term
            if a != 1:
                acc *= a
            if b:
                acc += b
            if (a != 1 or b) and modulus**3 > 2**63:
                _reduce(acc, modulus)
            acc *= x
        if c:
            acc += c
        return _reduce(acc, modulus, None if acc is x else x)  # x is done
    return np.fromiter(
        (the_map(x) % modulus for x in range(modulus)), dtype=np.int64, count=modulus
    )


def _prime_powers(modulus: int) -> list[int]:
    """The prime powers exactly dividing modulus, by trial division."""
    parts = []
    p = 2
    while p * p <= modulus:
        if modulus % p == 0:
            q = 1
            while modulus % p == 0:
                modulus //= p
                q *= p
            parts.append(q)
        p += 1 if p == 2 else 2
    if modulus > 1:
        parts.append(modulus)
    return parts


def _components(the_map, modulus: int) -> list[int]:
    """The moduli of the components functional_graph walks for Z_modulus:
    its prime powers for an integer polynomial, the whole ring otherwise."""
    return _prime_powers(modulus) if int_coefficients(the_map) else [modulus]


_Part = tuple[dict[int, int], int]  # a component's cycle-length counts and max tail


def batch_ranges(sizes) -> Iterator[tuple[int, int]]:
    """Cut items of these sizes (none negative), in order, into (start,
    stop) index ranges of at most _BATCH_NODES nodes, by searchsorted on
    the running total.  Only a range's first item takes it over the
    budget, and a size-0 item joins the range before it.  It cuts the
    oracle's windows; _scan makes the same cut one modulus at a time."""
    ends = np.cumsum(sizes)
    start = done = 0
    while start < len(ends):
        stop = int(np.searchsorted(ends, max(done + _BATCH_NODES, ends[start]), "right"))
        yield start, stop
        start, done = stop, int(ends[stop - 1])


def peel(succ: np.ndarray, dtype, *, jump: bool) -> tuple[np.ndarray, int]:
    """Peel the graph x -> succ[x] down to its cycles, round by round (see
    the module docstring).  Returns level, of dtype, zero (False) exactly
    on the cycles, and the longest tail.  A node peeled in round t has
    level t.

    With jump, a peel whose frontier has fallen below _JUMP_FRONTIER nodes
    while at most _JUMP_NODES are unpeeled is finished by _jump, which
    gives each node it reaches the rounds peeled plus its distance to a
    cycle as level; the highest level in a block is still its longest
    tail.  Without jump, the peel runs to the end.
    """
    indeg = np.bincount(succ, minlength=len(succ))
    # allocated after indeg: the other order raised modscan-large's peak
    # RSS by 1.5 MiB
    level = np.zeros(len(succ), dtype=dtype)
    frontier = np.flatnonzero(indeg == 0)
    rounds = 0
    left = len(succ)
    while frontier.size:
        if jump and frontier.size < _JUMP_FRONTIER and left <= _JUMP_NODES:
            del indeg, frontier
            return level, rounds + _jump(succ, level, rounds)
        rounds += 1
        left -= frontier.size
        level[frontier] = rounds
        targets = succ[frontier]
        del frontier
        np.subtract.at(indeg, targets, 1)
        freed = targets[indeg[targets] == 0]
        # freed repeats a node once per edge into it; tag each entry with a
        # distinct negative indeg (a peeled node is never hit again) and
        # keep the one entry per node whose tag stuck
        tags = np.arange(-1, -1 - len(freed), -1)
        indeg[freed] = tags
        frontier = freed[indeg[freed] == tags]
    return level, rounds


def _restrict(succ: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The graph x -> succ[x] on the ascending nodes, which it must map
    into themselves, renumbered 0..len(nodes)-1 in their order."""
    pos = np.empty(len(succ), dtype=np.int64)
    pos[nodes] = np.arange(len(nodes))
    targets = succ[nodes]
    # frees nodes when the caller holds no other reference
    del nodes
    return pos[targets]


def _jump(succ: np.ndarray, level: np.ndarray, rounds: int) -> int:
    """Finish, by pointer jumping, a peel that has run rounds rounds (see
    the module docstring): give each unpeeled node off a cycle the level
    rounds + its distance to a cycle, and return the greatest distance.

    An unpeeled node has a chain of at least rounds predecessors, so no
    tail through it is longer than rounds + its distance; the node rounds
    steps down a longest tail is unpeeled, so some block's longest tail is
    exactly that.
    """
    rest = np.flatnonzero(level == 0)
    r = len(rest)
    nxt = _restrict(succ, rest)
    # 2**steps >= r: no distance in the residual graph reaches it
    steps = (r - 1).bit_length()
    ahead = nxt
    for _ in range(steps):
        ahead = ahead[ahead]
    on_cycle = np.zeros(r, dtype=bool)
    on_cycle[ahead] = True
    del ahead
    # a cycle node is its own end, at distance 0; after round s, dist[x]
    # counts the steps off a cycle among the 2**s from x, and the rounds
    # end once every node's pointer has reached a cycle
    dist = (~on_cycle).astype(np.int64)
    nxt[on_cycle] = np.flatnonzero(on_cycle)
    while (far := dist[nxt]).any():
        dist += far
        nxt = nxt[nxt]
    tree = ~on_cycle
    level[rest[tree]] = rounds + dist[tree]
    return int(dist.max())


def _cycles(nxt: np.ndarray, ids: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The cycles of the permutation x -> nxt[x], by contraction (see the
    module docstring): their lengths, and with ids, the id of one node of
    each.

    The hash of node x is x * _HASH mod 2**32, in uint32; a node's weight
    is the number of nodes it stands for.  A kept node is found from its
    forward edges alone: its edge falls and the next one rises.  The first
    round's weights are all 1 and its ids the given ones, so neither is
    built.
    """
    lengths: list[np.ndarray] = []
    reps: list[np.ndarray] = []
    weight = None  # all ones
    # the hashes of nodes 0..len(nxt)-1, built once: each round's nodes
    # take a prefix of them
    hashes = np.arange(len(nxt), dtype=np.uint32)
    hashes *= _HASH
    while len(nxt):
        hashed = hashes[: len(nxt)]
        ahead = hashed[nxt]
        loops = ahead == hashed
        if loops.any():
            if weight is None:
                lengths.append(np.ones(np.count_nonzero(loops), np.int64))
            else:
                lengths.append(weight[loops])
            if ids is not None:
                reps.append(ids[loops])
        del loops
        rises = hashed < ahead
        del ahead
        # x falls into a node that rises; a self-loop never rises
        keep = rises[nxt] > rises
        del rises
        free = ~keep
        kept = keep.nonzero()[0]
        # each kept node is at least two steps before the next kept one
        first = nxt[kept]
        if weight is None:
            total = np.full(len(kept), 2, np.int64)
        else:
            total = weight[kept]
            total += weight[first]
        at = nxt[first]
        del first
        if ids is not None:
            ids = ids[kept]
        walking = free[at].nonzero()[0]
        while walking.size:
            step = at[walking]
            total[walking] += 1 if weight is None else weight[step]
            step = nxt[step]
            at[walking] = step
            walking = walking[free[step]]
        # renumber the kept nodes 0..len(kept)-1 (a cumsum of keep would
        # build an int64 copy of it besides the ranks)
        rank = np.empty(len(nxt), dtype=np.int64)
        del free, keep, nxt
        rank[kept] = np.arange(len(kept))
        nxt = rank[at]
        del rank, at
        weight = total
    return np.concatenate(lengths), np.concatenate(reps) if ids is not None else None


def _array_walk(succ: np.ndarray, starts: np.ndarray | None = None) -> list[_Part]:
    """Cycle-length counts and the longest tail of the graph x -> succ[x]
    (see the module docstring).

    With starts, succ holds several graphs as blocks, block b at nodes
    starts[b] on, and the result is one pair per block.  A single graph
    keeps one bit per node in the peel and looks no block up: walked as a
    batch of one block instead, modscan-large read wall_s 0.1615 against
    0.158 s, slower in 5 of 5 pairs, and peak_rss_mib 47.5 against 47.0.
    With no tail, succ is a permutation and goes to contraction as is.
    """
    level, tail = peel(succ, bool if starts is None else np.int32, jump=True)
    if starts is None:
        # no name holds the cycle nodes or their graph, so each is freed
        # as soon as it is used: _restrict frees the nodes, _cycles the
        # graph after its first round
        lengths, _ = _cycles(_restrict(succ, np.flatnonzero(level == 0)) if tail else succ, None)
        values, counts = np.unique(lengths, return_counts=True)
        return [(dict(zip(values.tolist(), counts.tolist())), tail)]
    tails = np.maximum.reduceat(level, starts).tolist()
    on_cycle = np.flatnonzero(level == 0)
    del level
    lengths, reps = _cycles(_restrict(succ, on_cycle) if any(tails) else succ, on_cycle)
    block = np.searchsorted(starts, reps, side="right") - 1
    # a cycle of length l in block b counts at node starts[b] + l - 1,
    # which lies in block b, as l is at most the block's size
    tally = np.bincount(starts[block] + lengths - 1, minlength=len(succ))
    keys = np.flatnonzero(tally)
    block = np.searchsorted(starts, keys, side="right") - 1
    counts: list[dict[int, int]] = [{} for _ in starts]
    for b, length, count in zip(
        block.tolist(), (keys - starts[block] + 1).tolist(), tally[keys].tolist()
    ):
        counts[b][length] = count
    return list(zip(counts, tails))


def _walk_components(the_map, qs: list[int]) -> dict[int, _Part]:
    """Walk the components qs of the_map: each of at least _BATCH_NODES
    nodes on its own, the others as one batch."""
    walked = {q: _array_walk(_successors(the_map, q))[0] for q in qs if q >= _BATCH_NODES}
    batch = [q for q in qs if q < _BATCH_NODES]
    if batch:
        # component q has q nodes
        starts = np.cumsum([0, *batch[:-1]])
        succ = np.empty(sum(batch), dtype=np.int64)
        for q, start in zip(batch, starts.tolist()):
            block = succ[start : start + q]
            block[:] = _successors(the_map, q)
            block += start
        walked.update(zip(batch, _array_walk(succ, starts)))
    return walked


def functional_graph(
    the_map, modulus: int, *, parts: list[_Part] | None = None
) -> FunctionalGraphSummary:
    """Measure the functional graph of the_map on Z_modulus.

    An exact PowerMap or QuadMap is measured on each prime-power factor of
    the modulus and the components are combined (see the module docstring),
    so the cost follows the largest prime-power factor.  Any other callable,
    subclasses included, is walked over the whole ring.  A scan passes
    parts, the walked parts of the modulus's components, and the call only
    combines them; without parts, the call walks its own components as one
    batch.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if parts is None:
        parts = list(_walk_components(the_map, _components(the_map, modulus)).values())
    counts = {1: 1}
    max_tail = 0
    for part, tail in parts:
        combined: dict[int, int] = {}
        for l1, n1 in counts.items():
            for l2, n2 in part.items():
                g = gcd(l1, l2)
                length = l1 // g * l2
                combined[length] = combined.get(length, 0) + n1 * n2 * g
        counts = combined
        max_tail = max(max_tail, tail)
    # built as a list: a tuple grown from a generator is resized as it
    # fills, and over many small calls that left the heap growing
    cycle_lengths: list[int] = []
    for length in sorted(counts):
        cycle_lengths += [length] * counts[length]
    return FunctionalGraphSummary(
        modulus=modulus,
        node_count=modulus,
        cycle_count=len(cycle_lengths),
        cycle_lengths=tuple(cycle_lengths),
        max_cycle_length=cycle_lengths[-1],
        max_tail_length=max_tail,
        nodes_on_cycles=sum(cycle_lengths),
    )


def naive_graph_oracle(the_map, modulus: int) -> FunctionalGraphSummary:
    """Same summary by independent per-node iteration (<= M steps each).

    Quadratic in the modulus; intended for small M.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    succ = [the_map(x) % modulus for x in range(modulus)]
    cycles: set[tuple[int, ...]] = set()
    max_tail = 0
    for start in range(modulus):
        order: dict[int, int] = {}
        x = start
        while x not in order:
            order[x] = len(order)
            x = succ[x]
        first = order[x]
        walk = list(order)  # insertion order == visit order
        cycle = walk[first:]
        pivot = cycle.index(min(cycle))
        cycles.add(tuple(cycle[pivot:] + cycle[:pivot]))
        if first > max_tail:
            max_tail = first
    lengths = tuple(sorted(len(c) for c in cycles))
    return FunctionalGraphSummary(
        modulus=modulus,
        node_count=modulus,
        cycle_count=len(lengths),
        cycle_lengths=lengths,
        max_cycle_length=lengths[-1],
        max_tail_length=max_tail,
        nodes_on_cycles=sum(lengths),
    )


# ====================================================================
# scans and checkpoints
# ====================================================================


class CheckpointError(Exception):
    """Checkpoint file unreadable or inconsistent with the requested scan."""


def map_params(the_map) -> tuple[int, ...]:
    """The parameters recorded in checkpoint lines for a PowerMap or QuadMap,
    subclasses included: its dataclass field values, in declaration order."""
    if not isinstance(the_map, (PowerMap, QuadMap)):
        raise TypeError(f"no checkpoint params for {type(the_map).__name__}")
    return tuple(getattr(the_map, f.name) for f in fields(the_map))


def read_checkpoint(path, the_map) -> int | None:
    """Largest completed modulus recorded for this map, or None if empty.

    Line format: the map parameters, then modulus, max cycle length and
    cycle count, all space-separated ASCII integers.  Any malformed line
    (any non-ASCII byte) or a parameter mismatch raises CheckpointError; a
    last line without its newline is an interrupted write and is ignored.
    """
    params = map_params(the_map)
    width = len(params) + 3
    last = None
    for lineno, line in enumerate(Path(path).read_bytes().split(b"\n")[:-1], start=1):
        if not line.strip():
            continue
        try:
            fields = tuple(int(f) for f in line.split())
        except ValueError as exc:
            raise CheckpointError(f"{path}:{lineno}: not an integer record") from exc
        if len(fields) != width:
            raise CheckpointError(f"{path}:{lineno}: expected {width} fields")
        if fields[: len(params)] != params:
            raise CheckpointError(
                f"{path}:{lineno}: record is for map parameters "
                f"{fields[:len(params)]}, scan is {params}"
            )
        modulus = fields[len(params)]
        if last is not None and modulus <= last:
            raise CheckpointError(f"{path}:{lineno}: moduli out of order")
        last = modulus
    return last


def checkpoint_line(params: tuple[int, ...], summary: FunctionalGraphSummary) -> str:
    """The checkpoint line recording summary for a map with these params."""
    fields = (*params, summary.modulus, summary.max_cycle_length, summary.cycle_count)
    return " ".join(str(f) for f in fields) + "\n"


def max_cycle_scan(the_map, moduli: Iterable[int]) -> Iterator[FunctionalGraphSummary]:
    """Iterate functional_graph(the_map, M) for each modulus M, ascending.

    Moduli below 2 are refused by this call itself, before any summary is
    asked for.  The scan walks each component once, in batches (see the
    module docstring).
    """
    moduli = sorted(set(moduli))
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must be >= 2")
    return _scan(the_map, moduli)


def _scan(the_map, moduli: list[int]) -> Iterator[FunctionalGraphSummary]:
    """The summaries of the ascending moduli, run by run.  A modulus joins
    the open run if the run is empty, if it brings no component the scan
    has not seen, or if its new nodes still fit in _BATCH_NODES.  Otherwise,
    and after the last modulus, the run's new components are walked in one
    batch into parts, kept for the scan, and the run's summaries yielded."""
    parts: dict[int, _Part] = {}
    run: list[tuple[int, list[int]]] = []
    new: dict[int, None] = {}  # the run's components, walked by no earlier run
    for m in [*moduli, None]:  # None closes the last run
        qs = [] if m is None else _components(the_map, m)
        fresh = [q for q in qs if q not in parts and q not in new]
        if run and (m is None or fresh and sum(new) + sum(fresh) > _BATCH_NODES):
            parts.update(_walk_components(the_map, list(new)))
            for modulus, comps in run:
                yield functional_graph(the_map, modulus, parts=[parts[q] for q in comps])
            run, new = [], {}
        run.append((m, qs))
        new.update(dict.fromkeys(fresh))
