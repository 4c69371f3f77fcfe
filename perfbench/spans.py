"""In-memory spans for the traced benchmark run.

The traced run never edits the package.  It replaces names at layer
boundaries with timing wrappers, in the module of the *caller*: a
`from .kernel import approx_band_floor` in cli binds its own name, so the
wrapper goes on `orbitforge.cli.approx_band_floor`, not on the kernel.

Each span is one row of five integer columns (name id, start ns, end ns,
parent span index or -1, run id), kept in `array`s so that a million spans
cost tens of megabytes, and written out once when the benchmark ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Span and counter recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.counters: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._counting = False

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        # a span opened with nothing open is a new request: it and all its
        # descendants share the next run id
        idx = len(self.start)
        if not self._stack:
            self.run_id += 1
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(span index, args, return value)
        is called after the span closes, to count work where it happens."""
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn):
        """Generator function fn wrapped so that each next() is one span.

        Time the consumer spends between items is not charged to fn.
        """
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = open_(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(idx)
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, counter: str, fn, under: tuple[str, ...] = ()):
        """fn wrapped to count its outermost calls; no span is recorded.

        Calls nested inside another counted call are not counted again.
        With `under`, only calls made while the innermost open span has one
        of those names are counted.
        """
        counters = self.counters
        allowed = {self.name_id(n) for n in under}

        def counted(*args, **kwargs):
            stack = self._stack
            if self._counting or (allowed and not (stack and self.name[stack[-1]] in allowed)):
                return fn(*args, **kwargs)
            self._counting = True
            try:
                counters[counter] += 1
                return fn(*args, **kwargs)
            finally:
                self._counting = False

        counted.__wrapped__ = fn
        return counted

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        """Write every span to an .npz file: columns plus the name table."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64),
        )


def self_times(start, end, parent) -> list[int]:
    """Per span: duration minus the part of its interval its children cover.

    Children are merged as intervals and clipped to the parent, so
    overlapping or out-of-bounds children are never counted twice.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo_bound, hi_bound = start[p], end[p]
        covered = 0
        cur_lo = cur_hi = None
        for i in sorted(kids, key=start.__getitem__):
            lo, hi = max(start[i], lo_bound), min(end[i], hi_bound)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


@contextmanager
def patched(hooks):
    """Install (module name, attribute, wrapper factory) hooks; restore on exit.

    A hook whose attribute no longer exists raises LookupError before any
    hook is installed: a layer the trace cannot see must fail the run, not
    read as zero time.
    """
    targets = [(importlib.import_module(m), m, attr, factory) for m, attr, factory in hooks]
    missing = [f"{m}.{attr}" for module, m, attr, _ in targets if not hasattr(module, attr)]
    if missing:
        raise LookupError("trace hooks not found: " + ", ".join(missing))
    saved = []
    try:
        for module, _, attr, factory in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, factory(getattr(module, attr)))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
