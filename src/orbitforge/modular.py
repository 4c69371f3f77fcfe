"""Cycle structure of the map families over Z_M.

Iterating any map on Z_M yields a functional graph: every node has one
out-edge, so the graph is a disjoint union of cycles with trees hanging off
them.  functional_graph builds the successor table (vectorized numpy below
2**31, where every per-term product stays inside int64; exact big-int
Python above), then walks it once from each unvisited node.  A walk that
runs into its own path has closed a new cycle; either way the walk's nodes
take their distance to a cycle from the node it stopped at, so every node
is visited once.

naive_graph_oracle recomputes the same summary by per-node iteration with
no shared machinery, as an independent witness for small M.

ordered_map is the one place that spreads work over worker processes (the
oracle grids and max_cycle_scan both use it); results come back in input
order whatever the number of workers.

max_cycle_scan appends a checkpoint line for a modulus only after its
consumer has taken the row, so a consumer that writes and flushes each row
before asking for the next one never has a checkpointed modulus missing
from its output.  A last line without its newline is an interrupted write:
read_checkpoint ignores it and max_cycle_scan cuts it off before appending.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .maps import PowerMap, QuadMap

__all__ = [
    "FunctionalGraphSummary",
    "ScanRow",
    "CheckpointError",
    "functional_graph",
    "naive_graph_oracle",
    "max_cycle_scan",
    "map_params",
    "ordered_map",
    "read_checkpoint",
]

# above this modulus, residue products no longer fit in int64
_NUMPY_LIMIT = 1 << 31


@dataclass(frozen=True)
class FunctionalGraphSummary:
    modulus: int
    node_count: int
    cycle_count: int
    cycle_lengths: tuple[int, ...]  # ascending multiset
    max_cycle_length: int
    max_tail_length: int
    nodes_on_cycles: int


@dataclass(frozen=True)
class ScanRow:
    modulus: int
    params: tuple[int, ...]
    summary: FunctionalGraphSummary
    elapsed: float


def _pow_mod_array(x: np.ndarray, e: int, modulus: int) -> np.ndarray:
    result = np.ones_like(x)
    base = x % modulus
    while e:
        if e & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        e >>= 1
    return result


def _successor_list(the_map, modulus: int) -> list[int]:
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
        return acc.tolist()
    return [the_map(x) % modulus for x in range(modulus)]


def functional_graph(the_map, modulus: int) -> FunctionalGraphSummary:
    """Measure the functional graph of the_map on Z_modulus."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    succ = _successor_list(the_map, modulus)
    # depth[x]: -1 unvisited, -2 on the current walk, else distance to a cycle
    depth = [-1] * modulus
    cycle_lengths: list[int] = []
    max_tail = 0
    for start in range(modulus):
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
            cycle_lengths.append(len(path) - i)
            for y in path[i:]:
                depth[y] = 0
            del path[i:]
            d = 0
        while path:
            d += 1
            depth[path.pop()] = d
        if d > max_tail:
            max_tail = d
    cycle_lengths.sort()
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


def _cut_torn_line(path) -> None:
    """Truncate a file after its last newline, dropping an interrupted write."""
    data = Path(path).read_bytes()
    if not data.endswith(b"\n"):
        os.truncate(path, data.rfind(b"\n") + 1)


def _checkpoint_line(params: tuple[int, ...], summary: FunctionalGraphSummary) -> str:
    fields = (*params, summary.modulus, summary.max_cycle_length, summary.cycle_count)
    return " ".join(str(f) for f in fields) + "\n"


def _scan_one(the_map, modulus: int) -> ScanRow:
    started = time.perf_counter()
    summary = functional_graph(the_map, modulus)
    return ScanRow(modulus, map_params(the_map), summary, time.perf_counter() - started)


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
    the_map,
    moduli: Iterable[int],
    *,
    workers: int = 1,
    checkpoint_path: str | os.PathLike | None = None,
) -> Iterator[ScanRow]:
    """Iterate one ScanRow per modulus, in ascending modulus order.

    Moduli below 2 are refused by this call itself, before any row is asked
    for; the checkpoint is read when the first row is.  With a checkpoint
    file, moduli at or below the last recorded one are skipped and each
    completion is appended once the consumer asks for the next row, so an
    interrupted scan resumes where it stopped.  Worker processes split the
    moduli; results are still yielded (and checkpointed) in order.
    """
    moduli = sorted(set(moduli))
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must be >= 2")
    return _scan(the_map, moduli, workers, checkpoint_path)


def _scan(the_map, moduli: list[int], workers: int, checkpoint_path) -> Iterator[ScanRow]:
    done = None
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        done = read_checkpoint(checkpoint_path, the_map)
        _cut_torn_line(checkpoint_path)
    todo = [m for m in moduli if done is None or m > done]
    if not todo:
        return
    params = map_params(the_map)
    sink = open(checkpoint_path, "a", encoding="ascii") if checkpoint_path else None
    try:
        for row in ordered_map(partial(_scan_one, the_map), todo, workers):
            yield row
            if sink:
                sink.write(_checkpoint_line(params, row.summary))
                sink.flush()
    finally:
        if sink:
            sink.close()
