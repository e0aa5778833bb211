"""Shared infrastructure for the evaluation algorithms.

Besides wall-clock time (which the benchmark harness measures), every
algorithm reports machine-independent **work counters** so the paper's
relative results can be checked in a way that does not depend on the host:

* ``elements_scanned`` — sequential cursor advances over stored lists;
* ``pointer_jumps`` / ``entries_skipped`` — materialized-pointer
  dereferences and how many list entries they skipped (the LE/LE_p payoff);
* ``comparisons`` — structural label comparisons performed by join logic;
* ``candidates_added`` — nodes admitted to the intermediate result;
* ``matches`` — output tuples.

:class:`CountingCursor` walks a stored list's packed columns and attributes
every move to those counters, so all algorithms are instrumented identically.
"""

from __future__ import annotations

import enum
import gc
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import EvaluationError
from repro.storage.pager import IOStats
from repro.storage.records import ElementEntry
from repro.tpq.enumeration import Column, Enumeration

#: Exhausted-cursor sentinel: ``start``/``end`` compare greater than every
#: real label, so stream-merging loops need no separate None checks.
_INF = float("inf")


class Mode(enum.Enum):
    """Output-buffering mode (paper Section IV, "Variations")."""

    MEMORY = "memory"
    DISK = "disk"

    @classmethod
    def parse(cls, value: "Mode | str") -> "Mode":
        if isinstance(value, Mode):
            return value
        try:
            return cls(value.strip().lower())
        except ValueError:
            raise EvaluationError(
                f"unknown output mode {value!r}"
                f" (expected one of {[m.value for m in cls]})"
            ) from None


@dataclass
class Counters:
    """Machine-independent work counters for one evaluation run."""

    elements_scanned: int = 0
    pointer_jumps: int = 0
    entries_skipped: int = 0
    comparisons: int = 0
    getnext_calls: int = 0
    candidates_added: int = 0
    intermediate_tuples: int = 0
    flushes: int = 0
    matches: int = 0

    def merge(self, other: "Counters") -> None:
        self.elements_scanned += other.elements_scanned
        self.pointer_jumps += other.pointer_jumps
        self.entries_skipped += other.entries_skipped
        self.comparisons += other.comparisons
        self.getnext_calls += other.getnext_calls
        self.candidates_added += other.candidates_added
        self.intermediate_tuples += other.intermediate_tuples
        self.flushes += other.flushes
        self.matches += other.matches

    def as_dict(self) -> dict[str, int]:
        return {
            "elements_scanned": self.elements_scanned,
            "pointer_jumps": self.pointer_jumps,
            "entries_skipped": self.entries_skipped,
            "comparisons": self.comparisons,
            "getnext_calls": self.getnext_calls,
            "candidates_added": self.candidates_added,
            "intermediate_tuples": self.intermediate_tuples,
            "flushes": self.flushes,
            "matches": self.matches,
        }

    @property
    def work(self) -> int:
        """A single scalar summarizing CPU-side work (for quick ranking)."""
        return (
            self.elements_scanned
            + self.pointer_jumps
            + self.comparisons
            + self.candidates_added
            + self.intermediate_tuples
        )


Match = tuple[ElementEntry, ...]

#: ``emit_matches`` value asking the DAG-buffer engines for each match as
#: its tuple of start labels (what ``EvalResult.match_keys`` derives from
#: entry matches), built directly from the start columns.
KEYS = "keys"


@dataclass
class EvalResult:
    """Outcome of one query evaluation.

    ``columns`` hold the matches, by slot of the query pattern's preorder
    tags: row ``r`` of every column together is match ``r``'s tuple of
    start labels, in canonical (document) order.  They are empty when the
    run was started with ``emit_matches=False`` (``match_count`` is
    always filled in).  An entry-form run (not :data:`KEYS`) also carries
    ``segments``: the ``(enumeration, lo, hi)`` rank ranges the columns
    were taken from, in order.

    ``matches`` and :meth:`match_keys` are tuple views, built on first
    access: ``keys`` form gives the columns' rows, entry form tuples of
    :class:`~repro.storage.records.ElementEntry` — each range taken again
    over its candidates' records, one object per candidate shared by
    every row that holds it (:func:`entry_columns`).
    """

    match_count: int
    counters: Counters
    io: IOStats = field(default_factory=IOStats)
    peak_buffer_entries: int = 0
    peak_buffer_bytes: int = 0
    #: Time spent in the output phase (partition extension + match
    #: enumeration + spill), as opposed to the filtering phase.  The
    #: paper's lambda=1 choice rests on evaluation being CPU-bound; this
    #: split makes the claim observable.
    output_seconds: float = 0.0
    keys: bool = False
    columns: list[Column] = field(default_factory=list, repr=False)
    segments: list[tuple[Enumeration, int, int]] | None = field(
        default=None, repr=False
    )
    _matches: list[Match] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _match_keys: list[tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_rows(
        cls, rows: Sequence[Match], counters: Counters, **fields
    ) -> "EvalResult":
        """An entry-form result over ``rows``, tuples of records in any
        order (stored sorted: starts are unique, so the first differing
        record decides on its start); ``rows`` are its ``matches``."""
        rows = sorted(rows)
        result = cls(
            match_count=len(rows), counters=counters,
            columns=[[entry.start for entry in slot] for slot in zip(*rows)],
            **fields,
        )
        result._matches = rows
        return result

    @property
    def matches(self) -> list[Match]:
        """The matches as tuples (built once, on first access)."""
        if self.keys:
            return self.match_keys()
        cached = self._matches
        if cached is None:
            cached = self._matches = match_rows(
                entry_columns(self.segments or ())
            )
        return cached

    def match_keys(self) -> list[tuple[int, ...]]:
        """Canonical representation used by the differential tests (built
        once, on first access)."""
        cached = self._match_keys
        if cached is None:
            cached = self._match_keys = match_rows(self.columns)
        return cached


def entry_columns(
    segments: Sequence[tuple[Enumeration, int, int]],
) -> list[Column]:
    """The entry-form columns of ``segments``, rank ranges in order: each
    range taken again over its candidates' records
    (:meth:`~repro.tpq.enumeration.Enumeration.records`, built once per
    enumeration), so a row holds an :class:`ElementEntry` per slot."""
    columns: list[Column] = []
    for opened, lo, hi in segments:
        part = opened.take(lo, hi, opened.records(ElementEntry))
        if not columns:
            columns = part  # a take's columns are fresh
            continue
        for column, more in zip(columns, part):
            column += more
    return columns


def match_rows(columns: Sequence[Column]) -> list[tuple]:
    """Match columns as a list of rows, one tuple per match: the one
    place a match becomes a tuple.

    The cyclic collector is paused while the rows are built: a tuple per
    match, acyclic by construction (it refers only to objects that
    existed before it), would otherwise trip a young pass every 700 of
    them and, for entry rows (records are never untracked), promote them
    into the older passes (DESIGN.md §17, "The collector is a layer").
    Only a call that turned it off turns it back on, so a host that runs
    with it off is left alone.
    """
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        return list(zip(*columns))
    finally:
        if paused:
            gc.enable()


class CountingCursor:
    """Cursor over one stored list that attributes every move to counters.

    This is the engines' cursor kernel.  ``position`` / ``start`` / ``end``
    are plain attributes holding the head entry's list index and labels as
    raw ints (``_INF`` floats once exhausted), so join loops compare
    numbers and admit candidates *by position* — no record object is built
    per advance or per admission (records exist only past the output
    boundary, see :class:`~repro.tpq.enumeration.Enumeration`).

    The cursor advances over the list's packed columns directly (the list
    must carry them: every element and linked list does), mirroring the
    buffer pool's read accounting via
    :meth:`~repro.storage.pager.BufferPool.touch`, so the run reports the
    I/O a pool-served record cursor would.
    """

    __slots__ = (
        "counters", "position", "start", "end",
        "_columns", "_starts", "_ends", "_length", "_touch", "_touch_run",
        "_decoder_id", "_page_ids", "_breaks", "_page", "_page_hi",
    )

    def __init__(self, stored, counters: Counters):
        self.counters = counters
        columns = stored.columns
        self._columns = columns
        self._length = len(stored)
        self._starts = columns.starts
        self._ends = columns.ends
        self._touch = stored.pager.pool.touch
        self._touch_run = stored.pager.pool.touch_run
        self._decoder_id = stored._decoder_id
        page_ids, breaks = stored.page_map()
        self._page_ids = page_ids
        self._breaks = breaks
        self.position = 0
        self._page = 0
        if self._length:
            self._page_hi = breaks[1]
            # Opening a cursor reads the head entry's page.
            self._touch(page_ids[0], self._decoder_id)
            self.start = self._starts[0]
            self.end = self._ends[0]
        else:
            self._page_hi = 0
            self.start = _INF
            self.end = _INF

    @property
    def level(self) -> int:
        """Level label of the head entry (head must exist)."""
        return self._columns.levels[self.position]

    @property
    def following(self) -> int:
        """Following pointer of the head entry (linked schemes only)."""
        return self._columns.following[self.position]

    def child_pointer(self, slot: int) -> int:
        """Child pointer ``slot`` of the head entry (linked schemes only)."""
        return self._columns.children[slot][self.position]

    @property
    def exhausted(self) -> bool:
        return self.start is _INF

    def __len__(self) -> int:
        return self._length

    def advance(self) -> None:
        """Sequential move to the next entry."""
        self.counters.elements_scanned += 1
        if self.start is _INF:
            return
        position = self.position + 1
        self.position = position
        if position >= self._length:
            self.start = _INF
            self.end = _INF
            return
        if position >= self._page_hi:
            page = self._page + 1
            self._page = page
            self._page_hi = self._breaks[page + 1]
        self._touch(self._page_ids[self._page], self._decoder_id)
        self.start = self._starts[position]
        self.end = self._ends[position]

    def advance_past(self, bound: int) -> None:
        """Skip-ahead kernel: advance until ``start >= bound``.

        Contract: observable state and counters are byte-identical to the
        sequential skip loop every engine used to inline::

            while self.start < bound:
                self.counters.comparisons += 1
                self.advance()

        so each skipped entry still costs one comparison, one scanned
        element and one logical page read.  The landing position is found
        by bisection over the packed ``starts`` column and the page reads
        are accounted in per-page runs via
        :meth:`~repro.storage.pager.BufferPool.touch_run` — O(log n +
        pages crossed) instead of O(entries skipped) Python-level work.
        """
        start = self.start
        if start is _INF or start >= bound:
            return
        position = self.position
        length = self._length
        target = bisect_left(self._starts, bound, position, length)
        # The sequential loop advances once per entry whose start label is
        # below the bound; running off the end costs one extra (uncounted-
        # touch) advance into the exhausted state.
        steps = target - position if target < length else length - position
        self.counters.comparisons += steps
        self.counters.elements_scanned += steps
        last = target if target < length else length - 1
        breaks = self._breaks
        page_ids = self._page_ids
        touch_run = self._touch_run
        decoder_id = self._decoder_id
        lo = position + 1
        page = bisect_right(breaks, lo, 0, len(page_ids)) - 1
        while lo <= last:
            hi = breaks[page + 1]
            upper = hi - 1 if hi - 1 < last else last
            touch_run(page_ids[page], decoder_id, upper - lo + 1)
            lo = hi
            if lo <= last:
                page += 1
        self._page = page
        self._page_hi = breaks[page + 1]
        self.position = target
        if target < length:
            self.start = self._starts[target]
            self.end = self._ends[target]
        else:
            self.start = _INF
            self.end = _INF

    def restore(self, position: int) -> None:
        """Reposition to ``position`` without attributing any work.

        Suspend/resume support (:mod:`repro.algorithms.preempt`): a
        resumed run rebuilds its cursors at their saved positions, and
        the scan/skip work that originally got them there is already in
        the snapshot's counters — re-counting it here would break the
        resumed-equals-uninterrupted counter contract.  Page residency
        is still mirrored (the reposition touches the landing page), so
        only I/O accounting — never work counters — differs from an
        uninterrupted run.
        """
        if position >= self._length:
            self.position = self._length
            self._page = 0
            self._page_hi = 0
            self.start = _INF
            self.end = _INF
            return
        self.position = position
        page = bisect_right(self._breaks, position, 0, len(self._page_ids)) - 1
        self._page = page
        self._page_hi = self._breaks[page + 1]
        self._touch(self._page_ids[page], self._decoder_id)
        self.start = self._starts[position]
        self.end = self._ends[position]

    def seek_pointer(self, index: int) -> None:
        """Jump forward via a materialized pointer to entry ``index``.

        Never moves backwards: pointer targets at or before the current
        position are ignored (the cursor discipline of the algorithms only
        skips forward over provably dead entries).
        """
        if index <= self.position:
            return
        self.counters.pointer_jumps += 1
        self.counters.entries_skipped += index - self.position - 1
        if index >= self._length:
            self.position = self._length
            self.start = _INF
            self.end = _INF
            return
        self.position = index
        page = bisect_right(self._breaks, index, 0, len(self._page_ids)) - 1
        self._page = page
        self._page_hi = self._breaks[page + 1]
        self._touch(self._page_ids[page], self._decoder_id)
        self.start = self._starts[index]
        self.end = self._ends[index]
