"""Timing and span recording for the benchmark's calls into invlab.

Every call the benchmark makes into the program goes through
``Recorder.run``, which times it with ``time.perf_counter`` and files the
duration, the number of items the call processed and an optional key under
the call's name.  Calls filed with the same key do work of the same cost on
fresh inputs (the same place in every closed-form round, the same read of a
Bergman shape in every round); the metrics keep the fastest of them.
End-to-end metrics are computed from these records.

With tracing on, ``run`` also records a span (name, start, end, parent) and
keeps the open span on a stack, so spans opened inside the call get it as
their parent.  Two wrappers reach inside the program through its public API
only: ``wrap_core`` gives a ``FinslerDensity`` a core that records one span
per batch evaluation, and ``wrap_oracle`` does the same for a certificate's
distance oracle.  No program module is patched.  Spans live in flat arrays in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

DENSITY = "metrics.density_core"
ORACLE = "distances.oracle"


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        # name -> [(duration, items, key)]: every call when tracing, else the unkeyed ones
        self.calls: dict[str, list[tuple[float, int, object]]] = defaultdict(list)
        # name -> {key: (fastest duration, items)} for keyed calls when not tracing,
        # so that memory does not grow with the number of rounds
        self.floors: dict[str, dict] = defaultdict(dict)
        # spans, one entry per index
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_items = array("q")
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, start: float, items: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_items.append(items)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, end: float) -> None:
        self.span_end[sid] = end
        self._stack.pop()

    # -- timed calls -----------------------------------------------------------

    def run(self, name: str, fn, *args, items: int = 1, key=None):
        """Call fn(*args), file its duration under name, and return its result."""
        if not self.trace:
            t0 = time.perf_counter()
            out = fn(*args)
            self._file(name, time.perf_counter() - t0, items, key)
            return out
        sid = self._open(self._name_id(name), time.perf_counter(), items)
        try:
            out = fn(*args)
        finally:
            end = time.perf_counter()
            self._close(sid, end)
        self._file(name, end - self.span_start[sid], items, key)
        return out

    def _file(self, name: str, dt: float, items: int, key) -> None:
        if key is None or self.trace:
            self.calls[name].append((dt, items, key))
            return
        best = self.floors[name]
        if key not in best or dt < best[key][0]:
            best[key] = (dt, items)

    def fastest(self) -> dict[str, list[tuple[float, int]]]:
        """Per name, (duration, items) of each unkeyed call and of the fastest call per key."""
        out = {}
        for name in set(self.calls) | set(self.floors):
            best = dict(self.floors.get(name, {}))
            rows = []
            for dt, items, key in self.calls.get(name, ()):
                if key is None:
                    rows.append((dt, items))
                elif key not in best or dt < best[key][0]:
                    best[key] = (dt, items)
            out[name] = rows + list(best.values())
        return out

    def wrap_core(self, core):
        """A density core that records one span per batch evaluation."""
        if not self.trace:
            return core
        nid = self._name_id(DENSITY)

        def traced(Z, X):
            sid = self._open(nid, time.perf_counter(), len(Z))
            try:
                return core(Z, X)
            finally:
                self._close(sid, time.perf_counter())

        return traced

    def wrap_oracle(self, oracle):
        """A certificate distance oracle that records one span per call."""
        if not self.trace:
            return oracle
        nid = self._name_id(ORACLE)

        def traced(Z, W):
            sid = self._open(nid, time.perf_counter(), len(Z))
            try:
                return oracle(Z, W)
            finally:
                self._close(sid, time.perf_counter())

        return traced

    # -- span analysis ---------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "items": np.frombuffer(self.span_items, dtype=np.int64).copy(),
        }

    def self_times(self) -> tuple[dict, np.ndarray]:
        """Per-span self time (duration minus the time its children cover)."""
        t = self.span_table()
        dur = t["end"] - t["start"]
        child = np.zeros_like(dur)
        has_parent = t["parent"] >= 0
        np.add.at(child, t["parent"][has_parent], dur[has_parent])
        return t, dur - child

    def write(self, path: str) -> None:
        t = self.span_table()
        np.savez_compressed(path, names=np.array(self.names), **t)
