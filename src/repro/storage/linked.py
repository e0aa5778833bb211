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
from repro.storage.lists import ListCursor, SlottedList, StoredList
from repro.storage.pager import Pager
from repro.storage.records import (
    NULL_POINTER,
    UNMATERIALIZED_POINTER,
    LinkedEntry,
    compact_linked_codec,
    linked_codec,
)
from repro.tpq.pattern import Pattern, PatternNode
from repro.xmltree.document import Document, Node


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
        document: the data tree (needed to resolve pc-children and lowest
            same-type-in-view ancestors while computing pointers).
        solution_lists: per-tag solution nodes of the view, document order.
        partial: False builds LE (all pointers), True builds LE_p.
        partial_distance: LE_p materialization threshold — a following or
            descendant pointer is materialized only if the pointed entry is
            more than this many entries away (the paper uses 1).
    """

    def __init__(
        self,
        pattern: Pattern,
        pager: Pager,
        document: Document,
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
        self._build(document, solution_lists)

    @property
    def scheme_name(self) -> str:
        return "LEp" if self.partial else "LE"

    # -- construction ---------------------------------------------------------

    def _build(
        self,
        document: Document,
        solution_lists: Mapping[str, Sequence[Node]],
    ) -> None:
        nodes_by_tag: dict[str, list[Node]] = {}
        position_by_tag: dict[str, dict[int, int]] = {}
        for qnode in self.pattern.nodes:
            nodes = list(solution_lists.get(qnode.tag, ()))
            nodes_by_tag[qnode.tag] = nodes
            position_by_tag[qnode.tag] = {
                node.start: i for i, node in enumerate(nodes)
            }

        for qnode in self.pattern.nodes:
            entries = self._build_list(
                document, qnode, nodes_by_tag, position_by_tag
            )
            stored = self._new_list(qnode)
            stored.extend(entries)
            self.lists[qnode.tag] = stored.finalize()

    def _new_list(self, qnode: PatternNode) -> StoredList | SlottedList:
        if self.partial:
            # LE_p drops many pointers: variable-width compact records
            # in slotted pages keep the view strictly smaller than LE
            # (the Table IV property).
            return SlottedList(
                self.pager,
                compact_linked_codec(len(qnode.children)),
                name=qnode.tag,
            )
        return StoredList(
            self.pager,
            linked_codec(len(qnode.children)),
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
        the label bytes inside the pages change (in one bulk pass per
        page, without decoding records).
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
        self,
        document: Document,
        qnode: PatternNode,
        nodes_by_tag: dict[str, list[Node]],
        position_by_tag: dict[str, dict[int, int]],
    ) -> list[LinkedEntry]:
        nodes = nodes_by_tag[qnode.tag]
        descendant_ptrs = self._descendant_pointers(nodes)
        following_ptrs = self._following_pointers(
            qnode, nodes, nodes_by_tag
        )
        child_ptrs_per_child = [
            self._child_pointers(
                document,
                nodes,
                nodes_by_tag[child.tag],
                position_by_tag[child.tag],
                child,
            )
            for child in qnode.children
        ]
        entries = []
        for i, node in enumerate(nodes):
            children = tuple(ptrs[i] for ptrs in child_ptrs_per_child)
            entries.append(
                LinkedEntry(
                    start=node.start,
                    end=node.end,
                    level=node.level,
                    following=following_ptrs[i],
                    descendant=descendant_ptrs[i],
                    children=children,
                )
            )
        return entries

    def _materialize_if_far(self, source: int, target: int) -> int:
        """Apply the LE_p heuristic to a following/descendant pointer."""
        if target == NULL_POINTER:
            return NULL_POINTER
        if self.partial and target - source <= self.partial_distance:
            return UNMATERIALIZED_POINTER
        return target

    def _descendant_pointers(self, nodes: Sequence[Node]) -> list[int]:
        """Same-type descendant with the smallest start.

        Lists are in document order, so the smallest-start descendant of
        ``nodes[i]``, if any, is exactly ``nodes[i+1]`` when it lies inside
        ``nodes[i]``'s region.
        """
        pointers = []
        count_kind = 0
        for i, node in enumerate(nodes):
            target = NULL_POINTER
            if i + 1 < len(nodes) and nodes[i + 1].start < node.end:
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
        nodes: Sequence[Node],
        nodes_by_tag: dict[str, list[Node]],
    ) -> list[int]:
        """Same-type following node with the smallest start, constrained to
        the same lowest parent-type ancestor in the view when one exists."""
        if qnode.parent is None:
            groups = {None: list(range(len(nodes)))}
            anchor = [None] * len(nodes)
        else:
            anchor = _lowest_view_ancestors(
                nodes, nodes_by_tag[qnode.parent.tag]
            )
            groups: dict[object, list[int]] = {}
            for i, key in enumerate(anchor):
                groups.setdefault(key, []).append(i)

        pointers = [NULL_POINTER] * len(nodes)
        count_kind = 0
        starts = [node.start for node in nodes]
        for members in groups.values():
            member_starts = [starts[i] for i in members]
            for rank, i in enumerate(members):
                # First group member whose start exceeds this node's end.
                j = bisect_right(member_starts, nodes[i].end, lo=rank + 1)
                target = members[j] if j < len(members) else NULL_POINTER
                materialized = self._materialize_if_far(i, target)
                if materialized >= 0:
                    count_kind += 1
                pointers[i] = materialized
        self.pointer_stats.following += count_kind
        return pointers

    def _child_pointers(
        self,
        document: Document,
        parents: Sequence[Node],
        children: Sequence[Node],
        child_positions: dict[int, int],
        child_qnode: PatternNode,
    ) -> list[int]:
        """Per parent entry, the child-query-node partner with smallest start.

        For an ad-edge this is the first list entry inside the parent's
        region; for a pc-edge it is the first list entry whose data parent
        is the entry's node.
        """
        pointers = []
        count_kind = 0
        child_starts = [node.start for node in children]
        first_child_of_parent: dict[int, int] = {}
        if child_qnode.axis.is_pc:
            for i, node in enumerate(children):
                first_child_of_parent.setdefault(node.parent_index, i)
        for parent in parents:
            target = NULL_POINTER
            if child_qnode.axis.is_pc:
                target = first_child_of_parent.get(parent.index, NULL_POINTER)
            else:
                j = bisect_right(child_starts, parent.start)
                if j < len(children) and child_starts[j] < parent.end:
                    target = j
            # Child pointers are always materialized, in LE_p too.
            if target >= 0:
                count_kind += 1
            pointers.append(target)
        self.pointer_stats.child += count_kind
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
    nodes: Sequence[Node], candidates: Sequence[Node]
) -> list[object]:
    """For each node, the start label of its lowest ancestor among
    ``candidates`` (both lists in document order), or None.

    Single merge sweep with a stack of open candidate regions.
    """
    result: list[object] = []
    stack: list[Node] = []
    ci = 0
    total = len(candidates)
    for node in nodes:
        while ci < total and candidates[ci].start < node.start:
            candidate = candidates[ci]
            ci += 1
            while stack and stack[-1].end < candidate.start:
                stack.pop()
            stack.append(candidate)
        while stack and stack[-1].end < node.start:
            stack.pop()
        if stack and node.end < stack[-1].end:
            result.append(stack[-1].start)
        else:
            result.append(None)
    return result
