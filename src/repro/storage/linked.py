"""Linked-element storage schemes (LE and LE_p) — the paper's Section III.

A materialized view is conceptually a DAG over its solution nodes.  The LE
scheme stores the DAG as one list per view node tag (sorted in document
order), where each record carries, besides its region label:

* one **child pointer** per child query node ``q_i`` of the record's query
  node — the ``q_i``-type child (pc-edge) or descendant (ad-edge) of the
  record's node with the smallest start label;
* a **descendant pointer** — the same-type descendant with the smallest
  start label;
* a **following pointer** — the same-type following node with the smallest
  start label, constrained (when the query node has a parent ``alpha`` in
  the view) to share the record's lowest ``alpha``-type ancestor in the
  materialized view.

The partial scheme LE_p (Section III-C) always materializes child pointers
but materializes a following/descendant pointer only when the pointed node
is **more than one entry away** in its list; otherwise the pointer slot
holds ``UNMATERIALIZED_POINTER`` and readers fall back to sequential
advancement.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import StorageError
from repro.storage.element import SolutionLabels, solution_labels
from repro.storage.lists import ListCursor, SlottedList, StoredList
from repro.storage.pager import Pager
from repro.storage.records import (
    NULL_POINTER,
    UNMATERIALIZED_POINTER,
    LinkedColumns,
    compact_linked_codec,
    linked_codec,
)
from repro.tpq.pattern import Pattern, PatternNode
from repro.xmltree.document import Node


class PointerKind(enum.Enum):
    CHILD = "child"
    DESCENDANT = "descendant"
    FOLLOWING = "following"


@dataclass
class PointerStats:
    """Materialized-pointer counts per kind (paper Table IV's #pointers)."""

    child: int = 0
    descendant: int = 0
    following: int = 0

    @property
    def total(self) -> int:
        return self.child + self.descendant + self.following

    def as_dict(self) -> dict[str, int]:
        return {
            "child": self.child,
            "descendant": self.descendant,
            "following": self.following,
            "total": self.total,
        }


class LinkedElementView:
    """A view materialized in the LE or LE_p scheme.

    Args:
        pattern: the view's tree pattern.
        pager: storage target.
        solution_lists: per-tag solution nodes of the view, document order
            (a document's :class:`NodeView` is read column-wise).
        partial: False builds LE (all pointers), True builds LE_p.
        partial_distance: LE_p materialization threshold — a following or
            descendant pointer is materialized only if the pointed entry is
            more than this many entries away (the paper uses 1).
    """

    def __init__(
        self,
        pattern: Pattern,
        pager: Pager,
        solution_lists: Mapping[str, Sequence[Node]],
        partial: bool = False,
        partial_distance: int = 1,
    ):
        if partial_distance < 1:
            raise StorageError("partial_distance must be >= 1")
        self.pattern = pattern
        self.pager = pager
        self.partial = partial
        self.partial_distance = partial_distance
        self.pointer_stats = PointerStats()
        self.child_tag_order: dict[str, list[str]] = {
            qnode.tag: [child.tag for child in qnode.children]
            for qnode in pattern.nodes
        }
        self.lists: dict[str, StoredList | SlottedList] = {}
        self._build(solution_lists)

    @property
    def scheme_name(self) -> str:
        return "LEp" if self.partial else "LE"

    # -- construction ---------------------------------------------------------

    def _build(self, solution_lists: Mapping[str, Sequence[Node]]) -> None:
        solutions = {
            qnode.tag: solution_labels(
                solution_lists.get(qnode.tag, ()),
                tree=(
                    (qnode.parent is not None and qnode.axis.is_pc)
                    or any(child.axis.is_pc for child in qnode.children)
                ),
            )
            for qnode in self.pattern.nodes
        }
        for qnode in self.pattern.nodes:
            if self.partial:
                # LE_p drops many pointers: variable-width compact records
                # in slotted pages keep the view strictly smaller than LE
                # (the Table IV property).
                layout = SlottedList
                codec = compact_linked_codec(len(qnode.children))
            else:
                layout = StoredList
                codec = linked_codec(len(qnode.children))
            self.lists[qnode.tag] = layout.from_columns(
                self.pager, codec, self._build_list(qnode, solutions),
                name=qnode.tag,
            )

    def relabeled(
        self, ops: Sequence[tuple[int, int]]
    ) -> "LinkedElementView":
        """Copy-on-write clone with all region labels shifted.

        The incremental-maintenance SHIFT repair: a monotone relabelling
        preserves document order, containment among view nodes and entry
        indexes, so every stored pointer, every LE_p materialization
        decision and the pointer statistics carry over verbatim — only
        the label bytes inside the pages and the label columns change
        (each list's columns derived from its parent's, no record
        decoded).
        """
        view = LinkedElementView.__new__(LinkedElementView)
        view.pattern = self.pattern
        view.pager = self.pager
        view.partial = self.partial
        view.partial_distance = self.partial_distance
        view.pointer_stats = PointerStats(
            child=self.pointer_stats.child,
            descendant=self.pointer_stats.descendant,
            following=self.pointer_stats.following,
        )
        view.child_tag_order = {
            tag: list(order) for tag, order in self.child_tag_order.items()
        }
        view.lists = {
            tag: stored.shifted(ops) for tag, stored in self.lists.items()
        }
        return view

    def _build_list(
        self, qnode: PatternNode, solutions: dict[str, SolutionLabels]
    ) -> LinkedColumns:
        """``qnode``'s list as columns: its labels and, per pointer kind,
        the pointer column built over the solution labels."""
        own = solutions[qnode.tag]
        return LinkedColumns(len(qnode.children)).extend_fields(
            own.starts,
            own.ends,
            own.levels,
            self._following_pointers(qnode, own, solutions),
            self._descendant_pointers(own),
            *(
                self._child_pointers(own, solutions[child.tag], child)
                for child in qnode.children
            ),
        )

    def _materialize_if_far(self, source: int, target: int) -> int:
        """Apply the LE_p heuristic to a following/descendant pointer."""
        if target == NULL_POINTER:
            return NULL_POINTER
        if self.partial and target - source <= self.partial_distance:
            return UNMATERIALIZED_POINTER
        return target

    def _descendant_pointers(self, own: SolutionLabels) -> list[int]:
        """Same-type descendant with the smallest start.

        Lists are in document order, so the smallest-start descendant of
        entry ``i``, if any, is exactly entry ``i+1`` when it lies inside
        entry ``i``'s region.
        """
        starts, ends = own.starts, own.ends
        pointers = []
        count_kind = 0
        last = len(starts) - 1
        for i, end in enumerate(ends):
            target = NULL_POINTER
            if i < last and starts[i + 1] < end:
                target = i + 1
            materialized = self._materialize_if_far(i, target)
            if materialized >= 0:
                count_kind += 1
            pointers.append(materialized)
        self.pointer_stats.descendant += count_kind
        return pointers

    def _following_pointers(
        self,
        qnode: PatternNode,
        own: SolutionLabels,
        solutions: dict[str, SolutionLabels],
    ) -> list[int]:
        """Same-type following node with the smallest start, constrained to
        the same lowest parent-type ancestor in the view when one exists."""
        count = len(own.starts)
        if qnode.parent is None:
            groups = {None: list(range(count))}
        else:
            anchor = _lowest_view_ancestors(
                own, solutions[qnode.parent.tag]
            )
            groups: dict[object, list[int]] = {}
            for i, key in enumerate(anchor):
                groups.setdefault(key, []).append(i)

        pointers = [NULL_POINTER] * count
        count_kind = 0
        starts, ends = own.starts, own.ends
        for members in groups.values():
            member_starts = [starts[i] for i in members]
            for rank, i in enumerate(members):
                # First group member whose start exceeds this node's end.
                j = bisect_right(member_starts, ends[i], lo=rank + 1)
                target = members[j] if j < len(members) else NULL_POINTER
                materialized = self._materialize_if_far(i, target)
                if materialized >= 0:
                    count_kind += 1
                pointers[i] = materialized
        self.pointer_stats.following += count_kind
        return pointers

    def _child_pointers(
        self,
        parents: SolutionLabels,
        children: SolutionLabels,
        child_qnode: PatternNode,
    ) -> list[int]:
        """Per parent entry, the child-query-node partner with smallest start.

        For an ad-edge this is the first list entry inside the parent's
        region; for a pc-edge it is the first list entry whose data parent
        is the entry's node.
        """
        if child_qnode.axis.is_pc:
            first_child_of_parent: dict[int, int] = {}
            for i, parent_index in enumerate(children.parents):
                first_child_of_parent.setdefault(parent_index, i)
            pointers = [
                first_child_of_parent.get(index, NULL_POINTER)
                for index in parents.indexes
            ]
        else:
            child_starts = children.starts
            last = len(child_starts)
            pointers = []
            for start, end in zip(parents.starts, parents.ends):
                j = bisect_right(child_starts, start)
                pointers.append(
                    j if j < last and child_starts[j] < end else NULL_POINTER
                )
        # Child pointers are always materialized, in LE_p too.
        self.pointer_stats.child += len(pointers) - pointers.count(NULL_POINTER)
        return pointers

    # -- access --------------------------------------------------------------------

    def tags(self) -> list[str]:
        return self.pattern.tags()

    def list_for(self, tag: str) -> StoredList | SlottedList:
        try:
            return self.lists[tag]
        except KeyError:
            raise StorageError(f"view has no list for tag {tag!r}") from None

    def cursor(self, tag: str) -> ListCursor:
        return self.list_for(tag).cursor()

    def list_length(self, tag: str) -> int:
        return len(self.list_for(tag))

    def child_pointer_slot(self, parent_tag: str, child_tag: str) -> int:
        """Index of ``child_tag``'s pointer inside ``parent_tag`` records."""
        try:
            return self.child_tag_order[parent_tag].index(child_tag)
        except (KeyError, ValueError):
            raise StorageError(
                f"{child_tag!r} is not a child of {parent_tag!r} in the view"
            ) from None

    # -- statistics ----------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return sum(stored.size_bytes for stored in self.lists.values())

    @property
    def num_pages(self) -> int:
        return sum(stored.num_pages for stored in self.lists.values())

    def entry_counts(self) -> dict[str, int]:
        return {tag: len(stored) for tag, stored in self.lists.items()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LinkedElementView({self.pattern.to_xpath()!r},"
            f" scheme={self.scheme_name}, pointers={self.pointer_stats.total})"
        )


def _lowest_view_ancestors(
    nodes: SolutionLabels, candidates: SolutionLabels
) -> list[object]:
    """For each node, the start label of its lowest ancestor among
    ``candidates`` (both lists in document order), or None.

    Single merge sweep with a stack of open candidate regions.
    """
    result: list[object] = []
    stack: list[tuple[int, int]] = []  # (start, end) of open candidates
    candidate_regions = zip(candidates.starts, candidates.ends)
    pending = next(candidate_regions, None)
    for start, end in zip(nodes.starts, nodes.ends):
        while pending is not None and pending[0] < start:
            while stack and stack[-1][1] < pending[0]:
                stack.pop()
            stack.append(pending)
            pending = next(candidate_regions, None)
        while stack and stack[-1][1] < start:
            stack.pop()
        if stack and end < stack[-1][1]:
            result.append(stack[-1][0])
        else:
            result.append(None)
    return result
