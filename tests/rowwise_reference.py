"""The retired row-wise engine read path, kept as a differential reference.

Until PR 19 this code lived inside ``CountingCursor`` and ``TagSource``
behind an environment switch: every cursor move and every label probe
decodes a record through the buffer pool, and a buffered position's
labels are resolved from the records those reads already paid for.  It
left ``src/`` because no production run could reach it; it stays here
because it shares no cursor or label code with
``repro.algorithms.{base,access}`` — only the engines themselves, which
take it through the ``sources`` mapping they already accept — so
``tests/test_columnar_fastpath.py`` can hold the columnar kernels to it
on answers, work counters and pager I/O.

Its lists are :class:`PoolServedList` readers over the pages the
production lists own, so both sides read the same bytes: ``read``,
``scan`` and a cursor served by ``BufferPool.get``, each page decoded
record by record with the codec's own ``decode``.  Lists themselves have
no such read path — their columns are their only in-memory form — so
this reader is what the columns' ``touch`` accounting is held to.
"""

from __future__ import annotations

import itertools
import struct
from bisect import bisect_right
from contextlib import closing, nullcontext
from operator import attrgetter
from typing import Sequence

from repro.algorithms.base import _INF, Counters, EvalResult, Mode
from repro.algorithms.engine import evaluate, evaluate_quantum
from repro.algorithms.pathstack import pathstack
from repro.algorithms.twigstack import twigstack
from repro.algorithms.viewjoin import viewjoin, viewjoin_quantum
from repro.errors import StorageError
from repro.storage.catalog import ViewCatalog
from repro.storage.linked import LinkedElementView
from repro.storage.pager import IOStats, Pager


#: Pool keys of the reference readers: negative, so they never meet a
#: production list's decoder id in a shared pool.
_READER_IDS = itertools.count(-1, -1)


class PoolServedList:
    """``read`` / ``scan`` / ``cursor`` over a list's pages through
    ``BufferPool.get``, decoding a page record by record with the codec's
    per-record ``decode`` at most once per pool residency.

    Built from ``stored``'s manifest — fixed slots or a slotted
    directory — on ``stored``'s pager, under a pool key of its own.
    """

    def __init__(self, stored):
        self.pager = stored.pager
        self.codec = stored.codec
        self.name = stored.name
        self._decoder_id = next(_READER_IDS)
        manifest = stored.manifest()
        self._length = manifest["length"]
        self._slotted = "directory" in manifest
        if self._slotted:
            rows = manifest["directory"]
            self._page_ids = [row[2] for row in rows]
            self._breaks = [row[0] for row in rows]
        else:
            per_page = self.pager.page_size // self.codec.width
            self._page_ids = list(manifest["page_ids"])
            self._breaks = list(range(0, self._length, per_page))
        self._breaks.append(self._length)

    def __len__(self) -> int:
        return self._length

    def _decode_page(self, raw: bytes, count: int) -> list:
        if self._slotted:  # a u16 record count, then u16 record offsets
            offsets = struct.unpack_from(f"<{count}H", raw, 2)
            return [self.codec.decode(raw, offset)[0] for offset in offsets]
        width = self.codec.width
        return [self.codec.decode(raw, offset)
                for offset in range(0, count * width, width)]

    def read(self, index: int):
        if not 0 <= index < self._length:
            raise StorageError(f"entry index {index} out of range")
        page = bisect_right(self._breaks, index, 0, len(self._page_ids)) - 1
        first, stop = self._breaks[page], self._breaks[page + 1]
        records = self.pager.pool.get(
            self._page_ids[page], self._decoder_id,
            lambda raw: self._decode_page(raw, stop - first),
        )
        return records[index - first]

    def scan(self):
        for index in range(self._length):
            yield self.read(index)

    def cursor(self) -> "PoolServedCursor":
        return PoolServedCursor(self)


class PoolServedCursor:
    """``ListCursor``'s contract with every move a pool-served ``read``."""

    def __init__(self, stored: PoolServedList):
        self.list = stored
        self.position = 0
        self.current = stored.read(0) if len(stored) else None

    @property
    def exhausted(self) -> bool:
        return self.current is None

    def advance(self) -> None:
        if self.current is None:
            return
        self.position += 1
        self.current = (
            self.list.read(self.position)
            if self.position < len(self.list) else None
        )

    def seek(self, index: int) -> None:
        if index >= len(self.list):
            self.position = len(self.list)
            self.current = None
            return
        if index < 0:
            raise StorageError(f"cannot seek to negative index {index}")
        self.position = index
        self.current = self.list.read(index)

    def peek(self, index: int):
        return self.list.read(index)


class _RecordField:
    """One field of the records kept by position, indexable like a packed
    column (an entry index, or a slice for a contiguous run)."""

    __slots__ = ("_records", "_pick")

    def __init__(self, records: dict, pick):
        self._records = records
        self._pick = pick

    def __getitem__(self, index):
        records, pick = self._records, self._pick
        if type(index) is slice:
            return [
                pick(records[i]) for i in range(index.start, index.stop)
            ]
        return pick(records[index])


class RecordLabels:
    """Row-wise stand-in for a list's packed columns.

    The reference has no columns to read a buffered position's labels
    from, and must not pay a second read for them.  It keeps, by position,
    the records its cursor and its region scans already read
    (``records``) and exposes their fields under the column names the
    engines index: ``starts`` / ``ends`` / ``levels`` and one ``children``
    field per pointer slot.
    """

    __slots__ = ("records", "starts", "ends", "levels", "children")

    def __init__(self, num_children: int):
        self.records: dict = {}
        self.starts = _RecordField(self.records, attrgetter("start"))
        self.ends = _RecordField(self.records, attrgetter("end"))
        self.levels = _RecordField(self.records, attrgetter("level"))
        self.children = tuple(
            _RecordField(
                self.records,
                lambda record, slot=slot: record.children[slot],
            )
            for slot in range(num_children)
        )


class RowwiseCursor:
    """``CountingCursor``'s contract over a :class:`PoolServedCursor`:
    the same attributes and counter attributions, every move a decoded
    record, every record kept in ``seen`` by position."""

    def __init__(self, stored, counters: Counters, seen: dict):
        self.counters = counters
        self.cursor = stored.cursor()
        self._length = len(stored)
        self._seen = seen
        self._land()

    def _land(self) -> None:
        """Mirror the wrapped cursor's head after a move, keeping the
        record it just paid for."""
        cursor = self.cursor
        position = self.position = cursor.position
        head = cursor.current
        if head is None:
            self.start = _INF
            self.end = _INF
        else:
            self.start = head.start
            self.end = head.end
            self._seen[position] = head

    @property
    def level(self) -> int:
        return self.cursor.current.level

    @property
    def following(self) -> int:
        return self.cursor.current.following

    def child_pointer(self, slot: int) -> int:
        return self.cursor.current.children[slot]

    @property
    def exhausted(self) -> bool:
        return self.start is _INF

    def __len__(self) -> int:
        return self._length

    def advance(self) -> None:
        self.counters.elements_scanned += 1
        self.cursor.advance()
        self._land()

    def advance_past(self, bound: int) -> None:
        """The literal skip loop the columnar kernel replays in bulk."""
        while self.start < bound:
            self.counters.comparisons += 1
            self.advance()

    def restore(self, position: int) -> None:
        self.cursor.seek(position)
        self._land()

    def seek_pointer(self, index: int) -> None:
        if index <= self.position:
            return
        self.counters.pointer_jumps += 1
        self.counters.entries_skipped += index - self.position - 1
        self.cursor.seek(index)
        self._land()


class RowwiseSource:
    """``TagSource``'s contract over a :class:`PoolServedList` (no B+-tree:
    the indexed descent never touched the row-wise code)."""

    def __init__(self, view, tag: str, stored):
        self.view = view
        self.tag = tag
        self.stored = stored
        self.has_pointers = isinstance(view, LinkedElementView)
        self._child_tags = (
            tuple(view.child_tag_order.get(tag, ()))
            if self.has_pointers else ()
        )
        self.labels = RecordLabels(len(self._child_tags))

    def __len__(self) -> int:
        return len(self.stored)

    def cursor(self, counters: Counters) -> RowwiseCursor:
        return RowwiseCursor(self.stored, counters, self.labels.records)

    def child_slot(self, child_tag: str) -> int | None:
        if child_tag in self._child_tags:
            return self._child_tags.index(child_tag)
        return None

    def bisect_start(self, value: int, counters: Counters) -> int:
        stored = self.stored
        lo, hi = 0, len(stored)
        while lo < hi:
            mid = (lo + hi) // 2
            counters.comparisons += 1
            if stored.read(mid).start <= value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def collect_from(self, index: int, bound: int, counters: Counters) -> int:
        stored = self.stored
        total = len(stored)
        records = self.labels.records
        while index < total:
            entry = stored.read(index)
            counters.comparisons += 1
            if entry.start >= bound:
                break
            records[index] = entry
            counters.elements_scanned += 1
            index += 1
        return index

    def recall(self, positions: Sequence[int]) -> None:
        records = self.labels.records
        for position in positions:
            records[position] = self.stored.read(position)


class ColumnarEngines:
    """The production entry points in :class:`RowwiseEngines`' calling
    shape, so a suite drives both sides with one script."""

    def __init__(self, catalog: ViewCatalog):
        self.catalog = catalog

    def evaluate(self, query, views, algorithm, scheme, **options):
        return evaluate(
            query, self.catalog, views, algorithm, scheme, **options
        )

    def evaluate_quantum(self, query, views, scheme, **options):
        return evaluate_quantum(
            query, self.catalog, views, "VJ", scheme, **options
        )


class RowwiseEngines:
    """``engine.evaluate`` / ``evaluate_quantum`` for TS / PS / VJ over one
    catalog, with every per-tag source a :class:`RowwiseSource`.

    One twin per production list for the catalog's lifetime, so buffer
    pool residency carries from one evaluation to the next exactly as it
    does for the production lists.
    """

    def __init__(self, catalog: ViewCatalog):
        self.catalog = catalog
        #: production list -> its twin (keyed by the list itself, which
        #: also keeps it alive: no identity is ever reused)
        self._twins: dict = {}

    def sources(self, query, views, scheme) -> dict[str, RowwiseSource]:
        """The views materialized (uncounted), stats reset, one row-wise
        source per query tag — in ``build_sources`` order."""
        materialized = [
            self.catalog.add(pattern, scheme).view for pattern in views
        ]
        self.catalog.pager.reset_stats()
        sources = {}
        for pattern, view in zip(views, materialized):
            for tag in pattern.tags():
                if query.has_tag(tag):
                    stored = view.list_for(tag)
                    if stored not in self._twins:
                        self._twins[stored] = PoolServedList(stored)
                    sources[tag] = RowwiseSource(
                        view, tag, self._twins[stored]
                    )
        return sources

    @staticmethod
    def _spill(mode: Mode):
        """The disk mode's spill pager (None in memory mode)."""
        if mode is Mode.DISK:
            return closing(Pager(file_backed=True))
        return nullcontext()

    def _stamp(self, result: EvalResult, spill) -> EvalResult:
        """Attach the run's pager I/O, as ``engine.evaluate`` does."""
        io = IOStats()
        io.merge(self.catalog.pager.total_stats())
        if spill is not None:
            io.merge(spill.total_stats())
        result.io = io
        return result

    def evaluate(
        self, query, views, algorithm, scheme, mode="memory",
        emit_matches=True, sink=None,
    ) -> EvalResult:
        mode = Mode.parse(mode)
        views = list(views)
        sources = self.sources(query, views, scheme)
        with self._spill(mode) as spill:
            if algorithm == "TS":
                result = twigstack(
                    query, sources, mode=mode, emit_matches=emit_matches,
                    spill_pager=spill, sink=sink,
                )
            elif algorithm == "PS":
                result = pathstack(
                    query, sources, mode=mode, emit_matches=emit_matches,
                    spill_pager=spill,
                )
            else:
                assert algorithm == "VJ", algorithm
                result = viewjoin(
                    query, sources, views, mode=mode,
                    emit_matches=emit_matches, spill_pager=spill, sink=sink,
                )
            return self._stamp(result, spill)

    def evaluate_quantum(
        self, query, views, scheme, mode="memory", emit_matches=True,
        budget=None, state=None,
    ):
        mode = Mode.parse(mode)
        views = list(views)
        sources = self.sources(query, views, scheme)
        with self._spill(mode) as spill:
            result, next_state = viewjoin_quantum(
                query, sources, views, mode=mode, emit_matches=emit_matches,
                spill_pager=spill, budget=budget, state=state,
            )
            return self._stamp(result, spill), next_state
