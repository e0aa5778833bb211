"""A ``gc.callbacks`` probe: which collections start, and where.

The output phase builds one column per pattern node, not one tuple per
match, so a heavy flush allocates per candidate, not per match, and
starts no collection; the tuple view built from the columns
(``match_rows``) allocates per match and pauses the collector for its
own extent (DESIGN.md §17, "The collector is a layer").  The probe
makes both observable without timing anything: for every
collection that *starts* inside the block it records the generation and
the functions on the allocating thread's stack.  CPython 3.11 runs a
collection — and its callbacks — inside the allocation that trips the
threshold, so the stack the probe walks is the stack that allocated.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager


@contextmanager
def collections_started():
    """Yield the list, appended to as the block runs, of ``(generation,
    code objects on the stack)`` per collection started.  The probe is
    removed on the way out, whatever the block raised."""
    started: list[tuple[int, frozenset]] = []

    def probe(phase: str, info: dict) -> None:
        if phase != "start":
            return
        codes = set()
        frame = sys._getframe(1)
        while frame is not None:
            codes.add(frame.f_code)
            frame = frame.f_back
        started.append((info["generation"], frozenset(codes)))

    gc.callbacks.append(probe)
    try:
        yield started
    finally:
        gc.callbacks.remove(probe)


def started_inside(started, function) -> list[int]:
    """The generations of the collections that started while
    ``function`` was running."""
    code = function.__code__
    return [generation for generation, codes in started if code in codes]
