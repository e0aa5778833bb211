"""The intermediate-solution DAG ``F`` (paper Section IV-B, feature 2).

ViewJoin (and our TwigStack variants, for a like-for-like memory comparison)
accumulate solution nodes in a buffer keyed by query-node tag.
A solution node is held as its **position** in its tag's stored list — the
representation of the paper's LE pointers, and of ``F``, which holds nodes
of the lists and not copies of them.  Nodes arrive in document order and
are kept sorted; per tag, the start labels and the prefix maxima of the end
labels answer the "has a *p*-type ancestor in F" checks of the ``get_next``
function by one binary search.

When a new root-tag solution starts after the current partition root's end,
the partition is **closed** (:meth:`DagBuffer.enter_root`).  Closed
partitions are **flushed** a page of element records at a time: the buffer
is extended to cover the query tags outside Q' (via the views' materialized
pointers or binary search) and matches are enumerated with exact pc/ad
checks — k partitions together give the concatenation of their k outputs,
and the filter phase cannot tell a closed partition that is still buffered
from one that is gone (DESIGN.md §6, deviation 7).

Two flush targets implement the paper's two output approaches:

* **memory-based** — matches accumulate in memory, as one column of start
  labels per query node (:class:`MatchColumns`);
* **disk-based** — each flush's candidate labels are serialized to a
  spill page file and read back (through a counting pager) before
  enumeration, modelling the paper's output-then-reread variant; peak
  in-memory buffer size is correspondingly bounded by one partition plus
  one page.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Mapping, Sequence

from repro.algorithms.base import (
    KEYS,
    Counters,
    EvalResult,
    Match,
    match_rows,
)
from repro.errors import EvaluationError
from repro.storage.lists import StoredList
from repro.storage.pager import DEFAULT_PAGE_SIZE, Pager
from repro.storage.records import ElementColumns, ElementEntry, element_codec
from repro.tpq.enumeration import Enumeration, MatchPlan
from repro.tpq.pattern import Pattern

#: Per query tag, the entry positions of a candidate set in its tag's list
#: (ascending; a ``range`` where a fetch found them contiguous).
Positions = Mapping[str, Sequence[int]]


def page_capacity(spill_pager: Pager | None) -> int:
    """Element records per page — of the spill pager's pages in disk
    mode: what a batch of closed partitions must reach to be flushed."""
    page_size = (
        DEFAULT_PAGE_SIZE if spill_pager is None else spill_pager.page_size
    )
    return page_size // element_codec().width


def column_at(column, positions: Sequence[int]):
    """``column`` gathered at ``positions`` (one slice for a range)."""
    if type(positions) is range:
        return column[positions.start:positions.stop]
    return [column[position] for position in positions]


class MatchColumns:
    """Matches gathered as columns, in emission order: by query slot, the
    start labels (``columns``), and in entry form the rank ranges they
    were taken from (``segments``; see :class:`EvalResult`).  A few
    lists, however many matches: what a heavy flush gathers allocates
    nothing per match for the cyclic collector to count."""

    __slots__ = ("columns", "segments")

    def __init__(self, arity: int, entries: bool):
        self.columns: list[list[int]] = [[] for _ in range(arity)]
        self.segments: list | None = [] if entries else None

    def add(self, opened: Enumeration, lo: int, hi: int) -> None:
        """Append matches ``lo..hi`` of ``opened`` (``lo < hi``)."""
        for slot, more in enumerate(opened.take(lo, hi)):
            if self.columns[slot]:
                self.columns[slot] += more
            else:
                self.columns[slot] = more  # a take's columns are fresh
        if self.segments is not None:
            self.segments.append((opened, lo, hi))


class DagBuffer:
    """Buffer of candidate solution nodes: the open partition, and the
    closed ones that do not fill a page yet.

    A candidate is its **position** in its tag's list: admission takes the
    cursor's own ints and keeps no record.  Labels are read back from the
    lists (``sources[tag].labels``) by position when a partition is
    flushed, as columns the enumerator runs on, and what it emits are
    columns too (:meth:`Enumeration.take`): no record and no tuple is
    built per match until a caller asks for ``EvalResult.matches``.

    Args:
        query: the query pattern (flush enumerates its matches).
        counters: run counters (candidate adds are attributed here).
        sources: per query tag, the list the buffered positions index
            (anything with the ``labels`` of a
            :class:`~repro.algorithms.access.TagSource`).
        emit_matches: keep the matches (True: entry form; :data:`KEYS`:
            start labels only) or only count them.
        spill_pager: when given, partitions are spilled to this pager and
            read back before enumeration (the disk-based approach).
        sink: when given, each flush's matches are pushed to this
            callback (one batch per flush, a list of tuples) instead of
            accumulating in ``output`` — the streaming output path for
            results larger than memory.
    """

    def __init__(
        self,
        query: Pattern,
        counters: Counters,
        sources: Mapping[str, object],
        emit_matches: bool | str = True,
        spill_pager: Pager | None = None,
        sink: Callable[[list[Match]], None] | None = None,
    ):
        # Compiled once per run; every partition flush reuses it.
        self.plan = MatchPlan(query)
        self.counters = counters
        #: per query tag, the fields of its list by entry position
        self._labels = {tag: sources[tag].labels for tag in self.plan.tags}
        self.emit_matches = emit_matches
        self.keys = emit_matches == KEYS
        self.spill_pager = spill_pager
        self.sink = sink
        #: the run's matches so far (not fed to a ``sink``)
        self.output = MatchColumns(
            len(self.plan.tags), bool(emit_matches) and not self.keys
        )
        self.match_count = 0
        self.output_seconds = 0.0
        self.peak_entries = 0
        self._entry_bytes = element_codec().width
        self._capacity = page_capacity(spill_pager)
        self._reset()

    # -- building ------------------------------------------------------------

    def enter_root(
        self,
        root,
        extend: Callable[[Positions], Positions] | None = None,
        hold: bool = False,
    ) -> tuple[Enumeration, Positions] | None:
        """A root-tag solution is about to be admitted: ``root`` (a
        record or a raw-column cursor: ``start`` and ``end`` are read)
        joins the open partition or, starting after the open root's end,
        closes it and opens the next.

        The closed partitions are flushed (``extend``, ``hold`` and the
        result are :meth:`flush`'s) once they hold a page of candidates,
        or a candidate that ends after its partition's root.  What stays
        buffered therefore ends before ``root`` starts, and no later
        probe starts before it: the filter phase cannot see it
        (DESIGN.md §6, deviation 7).
        """
        end = self._partition_end
        held = None
        if end is not None:
            if root.start <= end:
                return None
            if self._size >= self._capacity or any(
                bucket[2][-1] > end for bucket in self._buckets.values()
            ):
                held = self.flush(extend, hold)
        self._partition_end = root.end
        return held

    def add(self, tag: str, position: int, start: int, end: int) -> None:
        """Admit entry ``position`` of ``tag``'s list, labelled
        ``(start, end)``, as a candidate solution node.

        Nodes must arrive in non-decreasing document order per tag;
        duplicates (same start) are ignored.
        """
        bucket = self._buckets.get(tag)
        if bucket is None:
            self._buckets[tag] = ([position], [start], [end])
        else:
            positions, starts, prefix = bucket
            last = starts[-1]
            if last >= start:
                if last == start:
                    return
                raise EvaluationError(
                    f"candidates for {tag!r} must arrive in document order"
                )
            top = prefix[-1]
            positions.append(position)
            starts.append(start)
            prefix.append(end if end > top else top)
        self.counters.candidates_added += 1
        size = self._size = self._size + 1
        if size > self.peak_entries:
            self.peak_entries = size

    def open_ancestor(self, tag: str, start: int, end: int) -> bool:
        """True iff some buffered ``tag`` region contains ``(start, end)``.

        Implements get_next's "has a p-type ancestor in F" test on raw
        labels (the engines pass cursor ints directly).  A buffered
        candidate contains the region iff its start precedes ``start`` and
        its end exceeds ``end`` (regions nest or are disjoint), so the
        check reduces to a prefix-max-of-ends lookup — exact and
        non-destructive, unlike a shared pop-on-read stack, which would be
        order-sensitive when several consumers probe the same tag.
        """
        bucket = self._buckets.get(tag)
        if bucket is None:
            return False
        pos = bisect_left(bucket[1], start)
        if pos == 0:
            return False
        return bucket[2][pos - 1] > end

    def innermost_container_at(
        self, tag: str, start: int, end: int
    ) -> int | None:
        """Position (in ``tag``'s list) of the buffered ``tag`` candidate
        with the largest start whose region contains ``(start, end)``, or
        None.

        Containers of a node form a nested chain, so the innermost one has
        the maximal level among them — which makes this the primitive for
        exact parent-child admission (a direct parent exists iff the
        innermost container sits exactly one level above the entry; its
        level is one read of the list's level column).
        """
        bucket = self._buckets.get(tag)
        if bucket is None:
            return None
        positions, starts, prefix = bucket
        ends = self._labels[tag].ends
        index = bisect_left(starts, start) - 1
        while index >= 0:
            if prefix[index] <= start:
                return None  # nothing further left can reach this entry
            if ends[positions[index]] > end:
                return positions[index]
            index -= 1
        return None

    def max_buffered_end(self, tag: str) -> int:
        """Largest end label among buffered ``tag`` candidates (-1 if none).

        Used as a conservative guard before pointer-based cursor jumps: a
        jump over unread entries is only safe when no buffered candidate
        region could still contain them.
        """
        bucket = self._buckets.get(tag)
        return bucket[2][-1] if bucket is not None else -1

    @property
    def buffered_entries(self) -> int:
        return self._size

    @property
    def peak_bytes(self) -> int:
        return self.peak_entries * self._entry_bytes

    # -- suspend / resume --------------------------------------------------------

    def save_state(self) -> tuple[int | None, dict[str, list[int]]]:
        """Snapshot the buffer: ``(partition_end, per-tag positions)`` —
        the open root's end, and the candidates of the open partition
        and of the closed ones not flushed yet.  Everything else the
        buffer holds is a function of the positions and the lists they
        index."""
        return self._partition_end, {
            tag: list(bucket[0]) for tag, bucket in self._buckets.items()
        }

    def restore_state(
        self,
        partition_end: int | None,
        buffered: Positions,
        match_count: int,
        peak_entries: int,
        output_seconds: float,
    ) -> None:
        """Rebuild a suspended buffer from its positions.

        Candidates re-enter the buffer without passing through
        :meth:`add`: their admissions were counted when they first
        arrived, and the snapshot's counters already carry that work.
        Their labels must be readable again (``TagSource.recall``).
        Cumulative output totals (``match_count``, peak sizes, output
        time) are restored so the resumed run's final result equals the
        uninterrupted one.
        """
        self._reset()
        self._partition_end = partition_end
        for tag, positions in buffered.items():
            if not positions:
                continue
            labels = self._labels[tag]
            self._buckets[tag] = (
                list(positions),
                list(column_at(labels.starts, positions)),
                list(accumulate(column_at(labels.ends, positions), max)),
            )
            self._size += len(positions)
        self.match_count = match_count
        self.peak_entries = max(peak_entries, self._size)
        self.output_seconds = output_seconds

    # -- flushing ---------------------------------------------------------------

    def flush(
        self,
        extend: Callable[[Positions], Positions] | None = None,
        hold: bool = False,
    ) -> tuple[Enumeration, Positions] | None:
        """Enumerate everything buffered — the closed partitions and,
        at end of input, the open one: extend, enumerate, reset.

        Args:
            extend: callback receiving the buffered per-tag positions and
                returning those of the query tags the buffer does not
                cover (it fetches the tags outside Q' via view pointers).
                When None the buffer must already cover every query tag.
            hold: rank and charge the flush's matches but build none:
                the opened enumeration is returned with the positions it
                ranks (None when there is nothing to emit) and the caller
                expands it in slices — the preemptible run's sliceable
                flush.
        """
        if self._partition_end is None:
            self._reset()
            return None
        begin = time.perf_counter()
        self.counters.flushes += 1
        pools = {tag: bucket[0] for tag, bucket in self._buckets.items()}
        if extend is not None:
            pools.update(extend(pools))
        columns = self._label_columns(pools)
        if self.spill_pager is not None:
            columns = self._spill_and_reload(columns)
        held = None
        if self.sink is None and not self.emit_matches:
            produced = self.plan.count(*columns)
        else:
            # Already in tuple-of-starts order (see Enumeration), and
            # partitions are disjoint and flushed in document order, so
            # the accumulated output is canonical without a sort.
            opened = self.plan.open(*columns)
            produced = opened.total
            if hold:
                held = (opened, pools) if produced else None
            elif self.sink is not None:
                self.sink(self._rows(opened))
            elif produced:
                self.output.add(opened, 0, produced)
        self.match_count += produced
        self.counters.matches += produced
        self.output_seconds += time.perf_counter() - begin
        self._reset()
        return held

    def _rows(self, opened: Enumeration) -> list[Match]:
        """A sink's batch: the flush's matches as the tuples it promises,
        of start labels or (entry form) of the candidates' records."""
        if not opened.total:
            return []
        return match_rows(opened.take(
            0, opened.total,
            None if self.keys else opened.records(ElementEntry),
        ))

    def reopen(self, pools: Positions) -> Enumeration:
        """Rank a suspended flush's pools again from their positions
        (integer walks, no counter and no spill: the flush was charged
        when it happened)."""
        return self.plan.open(*self._label_columns(pools))

    def _label_columns(self, pools: Positions):
        """``(starts, ends, levels)`` of ``pools``, each by slot: the
        lists' label columns gathered at the pooled positions.

        :func:`column_at` written out: a flush gathers three columns per
        query tag, and on many-root documents (XMark Q14: 375 partitions
        of ten candidates) the calls alone were 2 % of the query.
        """
        starts: list = []
        ends: list = []
        levels: list = []
        for tag in self.plan.tags:
            labels = self._labels[tag]
            picked = pools.get(tag, ())
            if type(picked) is range:
                run = slice(picked.start, picked.stop)
                starts.append(labels.starts[run])
                ends.append(labels.ends[run])
                levels.append(labels.levels[run])
            else:
                column = labels.starts
                starts.append([column[p] for p in picked])
                column = labels.ends
                ends.append([column[p] for p in picked])
                column = labels.levels
                levels.append([column[p] for p in picked])
        return starts, ends, levels

    def page(self) -> MatchColumns:
        """An empty accumulator of this run's output form (a quantum's
        page)."""
        return MatchColumns(
            len(self.plan.tags), self.output.segments is not None
        )

    def result(self, page: MatchColumns | None = None) -> EvalResult:
        """The run's outcome so far; ``page`` overrides the accumulated
        matches (a quantum's page)."""
        output = self.output if page is None else page
        return EvalResult(
            match_count=self.match_count,
            counters=self.counters,
            peak_buffer_entries=self.peak_entries,
            peak_buffer_bytes=self.peak_bytes,
            output_seconds=self.output_seconds,
            keys=self.keys,
            columns=output.columns,
            segments=output.segments,
        )

    def _reset(self) -> None:
        #: per tag with a buffered candidate, three aligned lists: list
        #: positions, start labels, and prefix maxima of the end labels
        self._buckets: dict[str, tuple[list[int], list[int], list[int]]] = {}
        self._size = 0
        #: end label of the open partition's root (None before the first)
        self._partition_end: int | None = None

    def _spill_and_reload(self, columns):
        """Write the candidates' labels to the spill file and read them
        back, one list per query tag.

        Models the disk-based approach's extra I/O: the partition's portion
        of F is written out and re-read before match computation.  A tag's
        three label columns become an element list's columns, its pages
        are written from them, and the read-back is an accounted scan of
        that list (``touch_all``) — no record on either side.
        """
        assert self.spill_pager is not None
        reloaded: tuple[list, list, list] = ([], [], [])
        for tag, *labels in zip(self.plan.tags, *columns):
            spilled = StoredList.from_columns(
                self.spill_pager, element_codec(),
                ElementColumns().extend_fields(*labels), name=f"spill:{tag}",
            )
            spilled.touch_all()
            for column, values in zip(reloaded, spilled.columns.fields):
                column.append(values)
        return reloaded
