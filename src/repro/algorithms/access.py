"""Uniform per-tag access to materialized views for the join algorithms.

TwigStack and ViewJoin consume one document-ordered list per query tag; the
list lives in whichever view of the covering set contains that tag, stored
in the element or linked-element scheme.  :class:`TagSource` hides the
scheme differences:

* ``has_pointers`` — whether records carry materialized pointers;
* ``child_slot`` — position of a child-tag pointer inside this tag's
  records (linked schemes only);
* ``bisect_start`` — pager-accounted binary search by start label, the
  fallback access path when pointers are absent (element scheme) or not
  materialized (LE_p);
* ``labels`` — the list's fields by entry position: the engines buffer
  candidates as positions and read labels and child pointers here, at
  flush time, instead of carrying records.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Mapping, Sequence

from repro.algorithms.base import Counters, CountingCursor
from repro.errors import EvaluationError
from repro.storage.element import ElementView
from repro.storage.linked import LinkedElementView
from repro.storage.lists import StoredList
from repro.tpq.pattern import Pattern


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
    """Row-wise stand-in for a list's packed columns (``REPRO_COLUMNAR=0``).

    The reference path has no columns to read a buffered position's labels
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


class TagSource:
    """The stored list for one query tag plus its scheme capabilities."""

    def __init__(self, view, tag: str):
        if isinstance(view, LinkedElementView):
            self.has_pointers = True
        elif isinstance(view, ElementView):
            self.has_pointers = False
        else:
            raise EvaluationError(
                f"unsupported view type {type(view).__name__} for per-tag"
                " access (tuple views are only consumed by InterJoin)"
            )
        self.view = view
        self.tag = tag
        self.stored: StoredList = view.list_for(tag)
        self.index = None
        #: the list's fields by entry position (packed columns, or the
        #: reference path's kept records)
        self.labels = self.stored.columns
        if self.labels is None:
            self.labels = RecordLabels(
                len(view.child_tag_order.get(tag, ()))
                if self.has_pointers else 0
            )

    def __len__(self) -> int:
        return len(self.stored)

    def ensure_index(self) -> None:
        """Build a B+-tree over this list's start labels (idempotent).

        Models the indexed-structural-join substrate of the paper's
        related work (XR-/XB-trees): ``bisect_start`` then descends the
        index in O(height) page touches instead of probing data pages.
        The key sequence comes straight from the packed start column when
        the list carries one; only column-less lists pay a decoding scan.
        """
        if self.index is not None:
            return
        from repro.storage.btree import BPlusTreeIndex

        columns = self.stored.columns
        if columns is not None:
            starts = list(columns.starts)
        else:
            starts = [entry.start for entry in self.stored.scan()]
        self.index = BPlusTreeIndex.build(
            self.view.pager, starts, name=f"idx:{self.tag}"
        )

    def cursor(self, counters: Counters) -> CountingCursor:
        return CountingCursor(
            self.stored, counters,
            seen=None if self.stored.columns is not None
            else self.labels.records,
        )

    def child_slot(self, child_tag: str) -> int | None:
        """Pointer slot for ``child_tag`` inside this tag's records, if the
        view materializes one (i.e. ``child_tag`` is this tag's child in the
        view pattern and the scheme is linked)."""
        if not self.has_pointers:
            return None
        order = self.view.child_tag_order.get(self.tag, ())
        try:
            return order.index(child_tag)
        except ValueError:
            return None

    def read(self, index: int, counters: Counters):
        """Random-access read (counted as a pointer jump target access)."""
        counters.elements_scanned += 1
        return self.stored.read(index)

    def bisect_start(self, value: int, counters: Counters) -> int:
        """Index of the first entry with ``start > value``.

        With an attached B+-tree this is one root-to-leaf descent;
        otherwise a binary search through the pager — every probed entry
        counts as a comparison so the element scheme pays for what
        pointers avoid.  With packed columns each probe compares a raw int
        from the start column (the page touch is mirrored for identical
        I/O accounting); without them it decodes through the pool.
        """
        if self.index is not None:
            counters.comparisons += max(self.index.height, 1)
            found = self.index.first_greater(value)
            return len(self.stored) if found is None else found
        stored = self.stored
        lo, hi = 0, len(stored)
        columns = stored.columns
        if columns is not None:
            starts = columns.starts
            touch_index = stored.touch_index
            while lo < hi:
                mid = (lo + hi) // 2
                counters.comparisons += 1
                touch_index(mid)
                if starts[mid] <= value:
                    lo = mid + 1
                else:
                    hi = mid
            return lo
        while lo < hi:
            mid = (lo + hi) // 2
            counters.comparisons += 1
            # Reference fallback when packed columns are absent
            # (REPRO_COLUMNAR=0): pool-served decode is the point here.
            if stored.read(mid).start <= value:  # repro-lint: disable=RL101 (reference path)
                lo = mid + 1
            else:
                hi = mid
        return lo

    def collect_from(self, index: int, bound: int, counters: Counters) -> int:
        """Scan forward from ``index`` while ``start < bound``; returns the
        index the scan stopped at, so the collected entries are the
        positions ``index .. result``.

        ViewJoin's flush-time region fetch: every probed entry (including
        the one that breaks the scan) costs one accounted page access and
        one comparison; every collected entry counts as scanned.  No
        record is built on the columnar path; the reference path keeps the
        records it reads, which is all it will know of those positions.
        """
        stored = self.stored
        total = len(stored)
        columns = stored.columns
        if columns is not None:
            if index >= total:
                return index
            starts = columns.starts
            # One accounted access per probed entry, as `touch_index`
            # would charge it; the page is looked up once per page run.
            touch = stored.pager.pool.touch
            decoder_id = stored._decoder_id
            page_ids, breaks = stored.page_map()
            page = bisect_right(breaks, index, 0, len(page_ids)) - 1
            page_hi = breaks[page + 1]
            while index < total:
                if index >= page_hi:
                    page += 1
                    page_hi = breaks[page + 1]
                touch(page_ids[page], decoder_id)
                counters.comparisons += 1
                if starts[index] >= bound:
                    break
                counters.elements_scanned += 1
                index += 1
            return index
        records = self.labels.records
        while index < total:
            # Reference fallback when packed columns are absent.
            entry = stored.read(index)  # repro-lint: disable=RL101 (reference path)
            counters.comparisons += 1
            if entry.start >= bound:
                break
            records[index] = entry
            counters.elements_scanned += 1
            index += 1
        return index

    def recall(self, positions: Sequence[int]) -> None:
        """Read the entries at ``positions`` again (a resumed run carries
        positions, not labels): one accounted page access each, no work
        counter — the original admissions are in the snapshot's."""
        stored = self.stored
        if stored.columns is not None:
            for position in positions:
                stored.touch_index(position)
            return
        records = self.labels.records
        for position in positions:
            records[position] = stored.read(position)


def build_sources(
    query: Pattern,
    views: Sequence,
    view_patterns: Sequence[Pattern],
    use_index: bool = False,
) -> dict[str, TagSource]:
    """Map each query tag to its :class:`TagSource`.

    Args:
        query: the query pattern.
        views: materialized views, aligned with ``view_patterns``.
        view_patterns: the covering view patterns (tag-disjoint).
        use_index: attach a B+-tree to every per-tag list, accelerating
            the binary-search access path (paper §VII's indexed joins).
    """
    sources: dict[str, TagSource] = {}
    for pattern, view in zip(view_patterns, views):
        # Preorder, not tag_set(): source construction order decides
        # index build order and therefore page-touch order.
        for tag in pattern.tags():
            if query.has_tag(tag):
                source = TagSource(view, tag)
                if use_index:
                    source.ensure_index()
                sources[tag] = source
    missing = [tag for tag in query.tags() if tag not in sources]
    if missing:
        raise EvaluationError(
            f"no materialized view supplies query tags {missing}"
        )
    return sources


def total_input_entries(sources: Mapping[str, TagSource]) -> int:
    return sum(len(source) for source in sources.values())
