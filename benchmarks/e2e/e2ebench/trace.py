"""Benchmark-side spans around the public calls the workloads make.

Spans live in memory and are written out when the run ends.  A span is
``(id, parent, request, name, start, end)``; spans of one request share
its request id; a layer's self time is its span minus the part of it
its children cover.  Spans inside the program (``repro.obs``) are a
later change — these wrap the program from outside.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request: int):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[span_id] = (span_id, parent, request, name, start, end)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name (duration minus children)."""
        covered = [0.0] * len(self.spans)
        for _id, parent, _request, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for span_id, _parent, _request, name, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[span_id]
        return totals

    def write(self, path) -> None:
        records = [
            {"id": s[0], "parent": s[1], "request": s[2], "name": s[3],
             "start": s[4], "end": s[5]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records}, handle)
            handle.write("\n")


class NullTracer:
    """Tracing off: ``span`` costs one shared no-op context manager."""

    _off = nullcontext()

    def span(self, name: str, request: int):
        return self._off


OFF = NullTracer()
