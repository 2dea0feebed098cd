"""Spans around calls into the library's layers, recorded from outside.

A workload routes every call into a swapalg layer through ``tracer.call``
(or a ``with tracer.span(...)`` block for a call that contains other layer
calls).  The untraced run passes a :class:`NullTracer`, whose ``call`` is a
plain function call, so end-to-end timings carry no tracing cost.  The
traced run passes a :class:`Tracer`, which keeps every span in memory:
name, start, end, parent span and op id.  Nothing inside ``src/`` is
instrumented.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager, nullcontext
from time import perf_counter

SETUP_OP = -1  # op id of spans recorded while building shared state


class NullTracer:
    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return nullcontext()


class Tracer:
    """In-memory span recorder with per-span counters and gc accounting."""

    enabled = True

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.gc_collections = 0
        self.gc_busy_s = 0.0
        self.op_id = SETUP_OP
        self._stack: list[int] = []
        self._gc_start = None

    # -- spans ------------------------------------------------------------

    def _open(self, name) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record):
        record[2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args):
        record = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(record)

    @contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    # -- garbage collector ----------------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_busy_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def start(self):
        gc.callbacks.append(self._on_gc)

    def stop(self):
        gc.callbacks.remove(self._on_gc)
        self._gc_start = None

    # -- summaries ------------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """calls, busy_s and self_s (busy minus direct children) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return out

    def write(self, path):
        """Write the spans as tab-separated lines, times relative to the first."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\top\tparent\tname\tstart_s\tend_s\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    f"{index}\t{op}\t{parent}\t{name}\t{start - base:.9f}\t{end - base:.9f}\n"
                )
