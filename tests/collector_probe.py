"""A ``gc.callbacks`` probe: which collections start, and where.

``Enumeration.take`` pauses the cyclic collector for its own extent
(DESIGN.md §17, "The collector is a layer").  The probe makes that
observable without timing anything: for every collection that *starts*
inside the block it records the generation and whether a ``take`` frame
was on the allocating thread's stack.  CPython 3.11 runs a collection —
and its callbacks — inside the allocation that trips the threshold, so
the stack the probe walks is the stack that allocated.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager

from repro.tpq.enumeration import Enumeration

_TAKE = Enumeration.take.__code__


@contextmanager
def collections_started():
    """Yield the list, appended to as the block runs, of ``(generation,
    inside_take)`` per collection started.  The probe is removed on the
    way out, whatever the block raised."""
    started: list[tuple[int, bool]] = []

    def probe(phase: str, info: dict) -> None:
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not _TAKE:
            frame = frame.f_back
        started.append((info["generation"], frame is not None))

    gc.callbacks.append(probe)
    try:
        yield started
    finally:
        gc.callbacks.remove(probe)


def started_inside_take(started) -> list[int]:
    """The generations of the collections that started inside ``take``."""
    return [generation for generation, inside in started if inside]
