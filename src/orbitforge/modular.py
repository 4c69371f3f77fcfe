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
node next to the cycle on a longest tail has h = T - 1, so the peel takes
exactly T rounds.  The survivors are the cycle nodes, and min-label
pointer doubling gives each one its cycle's least node, whose label
counts are the cycle lengths.

A round costs numpy tens of microseconds whatever its size, more than a
small graph's whole work, so small graphs are peeled many at a time: their
tables are laid end to end as the blocks of one graph, each offset by its
start.  This module owns that block-graph layer, which the oracle's escape
windows share: peel, the batcher batches, and _BATCH_NODES, one node
budget for both callers.  Each node records its peel round, so a block's
longest tail is its highest round; a cycle's block is found from its least
node.  A component of _BATCH_NODES nodes or more is walked alone, with one
bit per node in the peel and no block lookup.  A call for one modulus walks
its own components as one batch.  max_cycle_scan keeps one component table
for the whole call, so each component is walked once per scan, and batches
the moduli into runs whose new components fill one batch; the first
modulus of a run walks the run's batch.  A run is cut only when its first
summary is asked for.

naive_graph_oracle recomputes the same summary by per-node iteration with
no shared machinery, as an independent witness for small M.

This module owns the checkpoint format (map_params, checkpoint_line,
read_checkpoint); the modscan command in the CLI owns the resume protocol
that writes and reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .maps import PowerMap, QuadMap, int_coefficients

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
# node budget of one list from batches, for modscan's components and the
# oracle's windows alike; a component this large is walked alone.  A larger
# budget spreads numpy's per-round cost over more graphs and holds more
# memory at once.  At 2**13, modscan-many ran about 15% slower, and
# oracle-gate read peak_rss_mib 36.71 against 37.11 at 2**14, wall_s alike.
_BATCH_NODES = 1 << 14


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
    the highest bit, so no power above the e-th is formed.  Nothing wraps
    while |x|**e fits in int64, or while 0 <= x < modulus < 2**31.
    """
    while not e & 1:
        x = x * x if modulus is None else x * x % modulus
        e >>= 1
    result = x
    e >>= 1
    while e:
        x = x * x if modulus is None else x * x % modulus
        if e & 1:
            result = result * x if modulus is None else result * x % modulus
        e >>= 1
    return result


def _successors(the_map, modulus: int) -> np.ndarray:
    """The int64 array of the_map(x) % modulus for x in Z_modulus."""
    form = int_coefficients(the_map)
    if modulus < _NUMPY_LIMIT and form is not None:
        m, a, b, c = form
        a, b, c = a % modulus, b % modulus, c % modulus
        x = np.arange(modulus, dtype=np.int64)
        acc = int_power(x, m, modulus)
        # a PowerMap (a = 1, b = 0) makes no pass for either term
        if a != 1:
            acc = (a * acc) % modulus
        if b:
            acc = (acc + b * x) % modulus
        return (acc + c) % modulus
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


def batches(items: Iterable, size: Callable[..., int]) -> Iterator[list]:
    """Cut items, in order, into lists of at most _BATCH_NODES nodes, each
    item's count from size, called once.  Only its first item takes a list
    over the budget, and no list but the first starts with a size-0 item."""
    batch: list = []
    nodes = 0
    for item in items:
        n = size(item)
        if batch and n and nodes + n > _BATCH_NODES:
            yield batch
            batch, nodes = [], 0
        batch.append(item)
        nodes += n
    if batch:
        yield batch


def peel(succ: np.ndarray, dtype) -> tuple[np.ndarray, int]:
    """Peel the graph x -> succ[x] down to its cycles, round by round (see
    the module docstring).  Returns level, of dtype, with level[x] the
    round that peels x, 0 (False) on a cycle, and the number of rounds.
    """
    indeg = np.bincount(succ, minlength=len(succ))
    # allocated after indeg: the other order raised modscan-large's peak
    # RSS by 1.5 MiB
    level = np.zeros(len(succ), dtype=dtype)
    frontier = np.flatnonzero(indeg == 0)
    rounds = 0
    while frontier.size:
        rounds += 1
        level[frontier] = rounds
        targets = succ[frontier]
        del frontier
        np.subtract.at(indeg, targets, 1)
        freed = targets[indeg[targets] == 0]
        # freed repeats a node once per edge into it; tag each entry with a
        # distinct negative indeg (a peeled node is never hit again) and
        # keep the one entry per node whose tag stuck
        tags = -1 - np.arange(len(freed))
        indeg[freed] = tags
        frontier = freed[indeg[freed] == tags]
    return level, rounds


def _array_walk(succ: np.ndarray, starts: np.ndarray | None = None) -> list[_Part]:
    """Cycle-length counts and the longest tail of the graph x -> succ[x]
    (see the module docstring).

    With starts, succ holds several graphs as blocks, block b at nodes
    starts[b] on, and the result is one pair per block.  A single graph
    keeps one bit per node in the peel and looks no block up: walked as a
    batch of one block instead, modscan-large read wall_s 0.1615 against
    0.158 s, slower in 5 of 5 pairs, and peak_rss_mib 47.5 against 47.0.
    """
    n = len(succ)
    level, rounds = peel(succ, bool if starts is None else np.int32)
    if starts is not None:
        tails = np.maximum.reduceat(level, starts).tolist()
    # number the cycle nodes 0..k-1
    on_cycle = np.flatnonzero(level == 0)
    del level
    if starts is not None:
        # the number of each block's first cycle node
        first_cycle = np.searchsorted(on_cycle, starts)
    pos = np.empty(n, dtype=np.int64)
    pos[on_cycle] = np.arange(len(on_cycle))
    nxt = pos[succ[on_cycle]]
    del pos, on_cycle
    # after round r, label[i] is the least index among the 2**r nodes from
    # i on and nxt[i] is the node 2**r ahead; once no label can drop, each
    # is its cycle's least index
    label = np.arange(len(nxt))
    while True:
        ahead = label[nxt]
        if np.array_equal(ahead, label):
            break
        np.minimum(label, ahead, out=label)
        nxt = nxt[nxt]
    lengths = np.bincount(label)
    if starts is None:
        values, counts = np.unique(lengths[lengths > 0], return_counts=True)
        return [(dict(zip(values.tolist(), counts.tolist())), rounds)]
    least = np.flatnonzero(lengths)
    block = np.searchsorted(first_cycle, least, side="right") - 1
    # a cycle of length l in block b counts at node starts[b] + l - 1,
    # which lies in block b, as l is at most the block's size
    tally = np.bincount(starts[block] + lengths[least] - 1, minlength=n)
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


class _ComponentTable:
    """The components of one map walked so far: q -> (cycle-length counts,
    max tail).

    A scan's table serves one run of moduli at a time; run maps each
    modulus to its components.  The first modulus with a component missing
    from the table walks every missing component of the run as one batch.
    """

    def __init__(self) -> None:
        self.parts: dict[int, _Part] = {}
        self.run: dict[int, list[int]] = {}

    def parts_of(self, the_map, modulus: int) -> list[_Part]:
        components = self.run.get(modulus) or _components(the_map, modulus)
        parts = self.parts
        if any(q not in parts for q in components):
            missing = dict.fromkeys(
                q for qs in (components, *self.run.values()) for q in qs if q not in parts
            )
            parts.update(_walk_components(the_map, list(missing)))
        return [parts[q] for q in components]


def functional_graph(
    the_map, modulus: int, *, table: _ComponentTable | None = None
) -> FunctionalGraphSummary:
    """Measure the functional graph of the_map on Z_modulus.

    An exact PowerMap or QuadMap is measured on each prime-power factor of
    the modulus and the components are combined (see the module docstring),
    so the cost follows the largest prime-power factor.  Any other callable,
    subclasses included, is walked over the whole ring.  A scan passes its
    component table, so that each component is walked once for the whole
    scan; without one, the call walks its own components as one batch.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if table is None:
        table = _ComponentTable()
    parts = table.parts_of(the_map, modulus)
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
    """Parameter fields recorded in checkpoint lines for this map."""
    if isinstance(the_map, PowerMap):
        return (the_map.degree, the_map.shift)
    if isinstance(the_map, QuadMap):
        return (the_map.a, the_map.b, the_map.c)
    raise TypeError(f"no checkpoint params for {type(the_map).__name__}")


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


def _runs(the_map, moduli: list[int]) -> Iterator[dict[int, list[int]]]:
    """Cut the ascending moduli into runs, each mapping its moduli to their
    components, by batches over the components no earlier modulus had."""
    seen: set[int] = set()

    def new_nodes(item: tuple[int, list[int]]) -> int:
        new = [q for q in item[1] if q not in seen]
        seen.update(new)
        return sum(new)

    for run in batches(((m, _components(the_map, m)) for m in moduli), new_nodes):
        yield dict(run)


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
    # built at the first summary asked for, and dropped with the iterator
    table = _ComponentTable()
    for run in _runs(the_map, moduli):
        table.run = run
        for m in run:
            yield functional_graph(the_map, m, table=table)
