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
from typing import Mapping, Sequence

from repro.algorithms.base import Counters, CountingCursor
from repro.errors import EvaluationError
from repro.storage.element import ElementView
from repro.storage.linked import LinkedElementView
from repro.storage.lists import StoredList
from repro.tpq.pattern import Pattern


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
        #: the list's fields by entry position (its packed columns)
        self.labels = self.stored.columns

    def __len__(self) -> int:
        return len(self.stored)

    def ensure_index(self) -> None:
        """Build a B+-tree over this list's start labels (idempotent).

        Models the indexed-structural-join substrate of the paper's
        related work (XR-/XB-trees): ``bisect_start`` then descends the
        index in O(height) page touches instead of probing data pages.
        The key sequence comes straight from the packed start column.
        """
        if self.index is not None:
            return
        from repro.storage.btree import BPlusTreeIndex

        self.index = BPlusTreeIndex.build(
            self.view.pager, list(self.labels.starts), name=f"idx:{self.tag}"
        )

    def cursor(self, counters: Counters) -> CountingCursor:
        return CountingCursor(self.stored, counters)

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

    def bisect_start(self, value: int, counters: Counters) -> int:
        """Index of the first entry with ``start > value``.

        With an attached B+-tree this is one root-to-leaf descent;
        otherwise a binary search through the pager — every probed entry
        counts as a comparison so the element scheme pays for what
        pointers avoid.  Each probe compares a raw int from the start
        column; the page touch is mirrored, so the search reports the I/O
        of one that decodes every probed entry through the pool.
        """
        if self.index is not None:
            counters.comparisons += max(self.index.height, 1)
            found = self.index.first_greater(value)
            return len(self.stored) if found is None else found
        stored = self.stored
        lo, hi = 0, len(stored)
        starts = self.labels.starts
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

    def collect_from(self, index: int, bound: int, counters: Counters) -> int:
        """Scan forward from ``index`` while ``start < bound``; returns the
        index the scan stopped at, so the collected entries are the
        positions ``index .. result``.

        ViewJoin's flush-time region fetch: every probed entry (including
        the one that breaks the scan) costs one accounted page access and
        one comparison; every collected entry counts as scanned.  No
        record is built.
        """
        stored = self.stored
        total = len(stored)
        if index >= total:
            return index
        starts = self.labels.starts
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

    def recall(self, positions: Sequence[int]) -> None:
        """Read the entries at ``positions`` again (a resumed run carries
        positions, not labels): one accounted page access each, no work
        counter — the original admissions are in the snapshot's."""
        touch_index = self.stored.touch_index
        for position in positions:
            touch_index(position)


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
