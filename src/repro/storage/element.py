"""Element storage scheme (E).

An *n*-node view is materialized as *n* single-element lists, one per view
node, each holding the view's solution nodes of that element type in
document order with no duplicates (paper Section I).  The precomputed joins
of the view pattern are *not* explicit — evaluation algorithms must redo the
structural joins — but the scheme is the most compact (Table IV).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from repro.errors import StorageError
from repro.storage.lists import ListCursor, StoredList
from repro.storage.pager import Pager
from repro.storage.records import ElementColumns, element_codec
from repro.tpq.pattern import Pattern
from repro.xmltree.document import Node, NodeView


class SolutionLabels(NamedTuple):
    """One view node's solution list as parallel label lists (document
    order); ``indexes`` / ``parents`` (document node and parent indexes)
    are gathered only for view nodes on a parent-child edge."""

    starts: list[int]
    ends: list[int]
    levels: list[int]
    indexes: Sequence[int]
    parents: Sequence[int]


def solution_labels(nodes: Sequence[Node], tree: bool) -> SolutionLabels:
    if isinstance(nodes, NodeView):
        columns = nodes.document.columns
        return SolutionLabels(
            nodes.gather(columns.start),
            nodes.gather(columns.end),
            nodes.gather(columns.level),
            nodes.rows if tree else (),
            nodes.gather(columns.parent) if tree else (),
        )
    nodes = list(nodes)
    return SolutionLabels(
        [node.start for node in nodes],
        [node.end for node in nodes],
        [node.level for node in nodes],
        [node.index for node in nodes] if tree else (),
        [node.parent_index for node in nodes] if tree else (),
    )


class ElementView:
    """A view materialized in the element scheme.

    Attributes:
        pattern: the view's tree pattern.
        lists: one :class:`StoredList` of :class:`ElementEntry` per view
            tag, handed its label columns whole.
    """

    scheme_name = "E"

    def __init__(self, pattern: Pattern, pager: Pager,
                 solution_lists: Mapping[str, Sequence[Node]]):
        self.pattern = pattern
        self.pager = pager
        self.lists: dict[str, StoredList] = {}
        for qnode in pattern.nodes:
            nodes = solution_lists.get(qnode.tag)
            if nodes is None:
                raise StorageError(
                    f"no solution list supplied for view node {qnode.tag!r}"
                )
            labels = solution_labels(nodes, tree=False)
            self.lists[qnode.tag] = StoredList.from_columns(
                pager, element_codec(),
                ElementColumns().extend_fields(*labels[:3]), name=qnode.tag,
            )

    # -- maintenance ---------------------------------------------------------

    def relabeled(self, ops: Sequence[tuple[int, int]]) -> "ElementView":
        """Copy-on-write clone with every list's labels shifted (the
        incremental-maintenance SHIFT repair)."""
        view = ElementView.__new__(ElementView)
        view.pattern = self.pattern
        view.pager = self.pager
        view.lists = {
            tag: stored.shifted(ops) for tag, stored in self.lists.items()
        }
        return view

    # -- access ------------------------------------------------------------------

    def tags(self) -> list[str]:
        return self.pattern.tags()

    def list_for(self, tag: str) -> StoredList:
        try:
            return self.lists[tag]
        except KeyError:
            raise StorageError(f"view has no list for tag {tag!r}") from None

    def cursor(self, tag: str) -> ListCursor:
        return self.list_for(tag).cursor()

    def list_length(self, tag: str) -> int:
        return len(self.list_for(tag))

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
        return f"ElementView({self.pattern.to_xpath()!r}, bytes={self.size_bytes})"
