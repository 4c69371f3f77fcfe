"""Cycle structure of the map families over Z_M.

Iterating any map on Z_M yields a functional graph: every node has one
out-edge, so the graph is a disjoint union of cycles with trees hanging off
them.  Both map families have integer coefficients, so by the Chinese
remainder theorem their graph on Z_M is the direct product of their graphs
on Z_q for the prime powers q exactly dividing M: a cycle of length l1 and
one of length l2 multiply into gcd(l1, l2) cycles of length lcm(l1, l2),
and a product node's tail is the longest of its components' tails.  So
functional_graph measures each prime-power component and combines them;
its cost follows the largest prime-power factor of M, not M.  Any other
callable (CRT holds only for integer polynomials) has its whole ring
walked as one component.

Each component builds its successor table as an int64 array (vectorized
numpy below 2**31, where every per-term product stays inside int64; exact
big-int Python above), then takes one of two walks by size.  Components of
fewer than _ARRAY_WALK_MIN nodes take _walk, a pure-Python walk from each
unvisited node: a walk that runs into its own path has closed a new cycle;
either way the walk's nodes take their distance to a cycle from the node it
stopped at, so every node is visited once.  Larger components take
_array_walk, which works in whole-array rounds.  It peels the nodes of
in-degree 0, level by level: a node whose longest chain of predecessors
has h edges goes in round h + 1.  With T the longest tail, a node at
distance d from its cycle has h <= T - d, and the node next to the cycle
on a longest tail has h = T - 1, so the peel takes exactly T rounds.  The
survivors are the cycle nodes, and min-label pointer doubling gives each
one its cycle's least node, whose label counts are the cycle lengths.
Below the cut numpy's per-round cost outweighs the Python walk; above it
the rounds are few next to the nodes (tails of random mappings run to
about the square root of the size), so the array walk wins.

naive_graph_oracle recomputes the same summary by per-node iteration with
no shared machinery, as an independent witness for small M.

ordered_map is the one place that spreads work over worker processes (the
oracle grids and max_cycle_scan both use it); results come back in input
order whatever the number of workers.

This module owns the checkpoint format (map_params, checkpoint_line,
read_checkpoint); the modscan command in the CLI owns the resume protocol
that writes and reads it.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from functools import partial
from math import gcd
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .maps import PowerMap, QuadMap

__all__ = [
    "FunctionalGraphSummary",
    "CheckpointError",
    "checkpoint_line",
    "functional_graph",
    "naive_graph_oracle",
    "max_cycle_scan",
    "map_params",
    "ordered_map",
    "read_checkpoint",
]

# above this modulus, residue products no longer fit in int64
_NUMPY_LIMIT = 1 << 31
# components of at least this many nodes take _array_walk, smaller ones
# _walk: below it numpy's per-round overhead costs more than the list walk
_ARRAY_WALK_MIN = 1 << 14


@dataclass(frozen=True)
class FunctionalGraphSummary:
    modulus: int
    node_count: int
    cycle_count: int
    cycle_lengths: tuple[int, ...]  # ascending multiset
    max_cycle_length: int
    max_tail_length: int
    nodes_on_cycles: int


def _pow_mod_array(x: np.ndarray, e: int, modulus: int) -> np.ndarray:
    """x**e % modulus elementwise, for int64 0 <= x < modulus < 2**31 and
    e >= 1 (a PowerMap degree); e = 1 returns x itself.

    Square-and-multiply from the lowest set bit of e: the result starts as
    the base there, and no squaring follows the highest bit.
    """
    while not e & 1:
        x = (x * x) % modulus
        e >>= 1
    result = x
    e >>= 1
    while e:
        x = (x * x) % modulus
        if e & 1:
            result = (result * x) % modulus
        e >>= 1
    return result


def _successors(the_map, modulus: int) -> np.ndarray:
    """The int64 array of the_map(x) % modulus for x in Z_modulus."""
    if modulus < _NUMPY_LIMIT and isinstance(the_map, (PowerMap, QuadMap)):
        x = np.arange(modulus, dtype=np.int64)
        if isinstance(the_map, PowerMap):
            acc = _pow_mod_array(x, the_map.degree, modulus)
            acc = (acc - the_map.shift % modulus) % modulus
        else:
            a, b, c = (v % modulus for v in (the_map.a, the_map.b, the_map.c))
            acc = (a * ((x * x) % modulus)) % modulus
            acc = (acc + b * x) % modulus
            acc = (acc + c) % modulus
        return acc
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


def _walk(succ: list[int]) -> tuple[dict[int, int], int]:
    """Cycle-length counts and the longest tail of the graph x -> succ[x]."""
    # depth[x]: -1 unvisited, -2 on the current walk, else distance to a cycle
    depth = [-1] * len(succ)
    counts: dict[int, int] = {}
    max_tail = 0
    for start in range(len(succ)):
        if depth[start] != -1:
            continue
        path = []
        x = start
        while depth[x] == -1:
            depth[x] = -2
            path.append(x)
            x = succ[x]
        d = depth[x]
        if d == -2:  # the walk closed a new cycle at x
            i = path.index(x)
            length = len(path) - i
            counts[length] = counts.get(length, 0) + 1
            for y in path[i:]:
                depth[y] = 0
            del path[i:]
            d = 0
        while path:
            d += 1
            depth[path.pop()] = d
        if d > max_tail:
            max_tail = d
    return counts, max_tail


def _array_walk(succ: np.ndarray) -> tuple[dict[int, int], int]:
    """_walk's result, computed by whole-array numpy rounds."""
    n = len(succ)
    indeg = np.bincount(succ, minlength=n)
    alive = np.ones(n, dtype=bool)
    frontier = np.flatnonzero(indeg == 0)
    max_tail = 0
    # peel in-degree 0 level by level; the rounds count the longest tail
    while frontier.size:
        alive[frontier] = False
        targets, hits = np.unique(succ[frontier], return_counts=True)
        indeg[targets] -= hits
        frontier = targets[indeg[targets] == 0]
        max_tail += 1
    # the survivors are the cycle nodes; number them 0..k-1
    on_cycle = np.flatnonzero(alive)
    del indeg, alive
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
    values, counts = np.unique(lengths[lengths > 0], return_counts=True)
    return dict(zip(values.tolist(), counts.tolist())), max_tail


def functional_graph(the_map, modulus: int) -> FunctionalGraphSummary:
    """Measure the functional graph of the_map on Z_modulus.

    A PowerMap or QuadMap is measured on each prime-power factor of the
    modulus and the components are combined (see the module docstring), so
    the cost follows the largest prime-power factor.  Any other callable
    is walked over the whole ring.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if isinstance(the_map, (PowerMap, QuadMap)):
        components = _prime_powers(modulus)
    else:
        components = [modulus]
    counts = {1: 1}
    max_tail = 0
    for q in components:
        succ = _successors(the_map, q)
        part, tail = _array_walk(succ) if q >= _ARRAY_WALK_MIN else _walk(succ.tolist())
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
    cycle count, all space-separated integers.  Any malformed line or a
    parameter mismatch raises CheckpointError; a last line without its
    newline is an interrupted write and is ignored.
    """
    params = map_params(the_map)
    width = len(params) + 3
    last = None
    for lineno, line in enumerate(Path(path).read_text().split("\n")[:-1], start=1):
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


def ordered_map(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """Yield fn(item) for each item, in input order.

    With more than one worker and more than one item, a process pool does
    the calls (fn and the items must pickle); otherwise they run here.
    """
    if workers > 1 and len(items) > 1:
        chunk = max(1, len(items) // (workers * 8))
        with multiprocessing.Pool(workers) as pool:
            yield from pool.imap(fn, items, chunksize=chunk)
    else:
        yield from map(fn, items)


def max_cycle_scan(
    the_map, moduli: Iterable[int], *, workers: int = 1
) -> Iterator[FunctionalGraphSummary]:
    """Iterate functional_graph(the_map, M) for each modulus M, ascending.

    Moduli below 2 are refused by this call itself, before any summary is
    asked for.  Worker processes split the moduli; summaries are still
    yielded in order.
    """
    moduli = sorted(set(moduli))
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must be >= 2")
    return ordered_map(partial(functional_graph, the_map), moduli, workers)
