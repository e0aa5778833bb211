"""The retired object-model document, kept as a differential reference.

Until the columnar :class:`repro.xmltree.document.Document` replaced it,
a document was a list of one :class:`Node` object per element, navigated
with Python-level bisects over the nodes' start labels; the writer
recursed over ``children``; and a delta built a fresh ``Node`` for every
element of the post-delta document.  That code left ``src/`` because no
production path reaches it; it stays here because it shares no
navigation, serialization or relabelling code with the columnar model —
only the ``Node`` class itself and the ``AppliedDelta`` record — so the
differential suites (``tests/test_columnar_document.py``,
``tests/test_xml_writer.py``) can hold the columnar document, the
one-pass writer and the column-slicing ``apply_delta`` to it.

:func:`object_document` turns a columnar document into its object twin
(fresh ``Node`` objects, nothing shared).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence, TextIO

from repro.errors import MaintenanceError, ReproError
from repro.maintenance.apply import AppliedDelta
from repro.maintenance.deltas import DeleteSubtree, InsertSubtree, RenameTag
from repro.xmltree.document import Document, Node, document_from_tuples
from repro.xmltree.labels import is_ancestor


class ObjectDocument:
    """An immutable region-labelled tree stored as a list of nodes."""

    def __init__(self, nodes: Sequence[Node], name: str = "document"):
        self.name = name
        self._nodes: list[Node] = list(nodes)
        self._by_tag: dict[str, list[Node]] = {}
        self._validate()
        for node in self._nodes:
            self._by_tag.setdefault(node.tag, []).append(node)

    def _validate(self) -> None:
        if not self._nodes:
            raise ReproError("a document must contain at least one node")
        root = self._nodes[0]
        if root.parent_index != -1:
            raise ReproError("first node in document order must be the root")
        for i, node in enumerate(self._nodes):
            if node.index != i:
                raise ReproError(
                    f"node {node!r} has index {node.index}, expected {i}"
                )
            if node.start >= node.end:
                raise ReproError(f"node {node!r} has start >= end")
            if i > 0:
                parent = self._nodes[node.parent_index]
                if not is_ancestor(parent, node):
                    raise ReproError(
                        f"node {node!r} not inside its parent's region"
                    )
                if parent.level != node.level - 1:
                    raise ReproError(
                        f"node {node!r} level inconsistent with parent"
                    )

    @property
    def root(self) -> Node:
        return self._nodes[0]

    @property
    def nodes(self) -> Sequence[Node]:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def tags(self) -> set[str]:
        return set(self._by_tag)

    def tag_list(self, tag: str) -> Sequence[Node]:
        return self._by_tag.get(tag, ())

    def tag_count(self, tag: str) -> int:
        return len(self._by_tag.get(tag, ()))

    def parent(self, node: Node) -> Node | None:
        if node.parent_index < 0:
            return None
        return self._nodes[node.parent_index]

    def children(self, node: Node) -> list[Node]:
        result = []
        i = node.index + 1
        n = len(self._nodes)
        while i < n and self._nodes[i].start < node.end:
            child = self._nodes[i]
            result.append(child)
            i = self._subtree_end_index(child)
        return result

    def descendants(self, node: Node) -> Sequence[Node]:
        return self._nodes[node.index + 1 : self._subtree_end_index(node)]

    def ancestors(self, node: Node) -> list[Node]:
        result = []
        current = self.parent(node)
        while current is not None:
            result.append(current)
            current = self.parent(current)
        return result

    def _subtree_end_index(self, node: Node) -> int:
        starts = _StartsView(self._nodes)
        return bisect_left(starts, node.end, lo=node.index + 1)

    def descendants_by_tag(self, node: Node, tag: str) -> list[Node]:
        tag_nodes = self._by_tag.get(tag)
        if not tag_nodes:
            return []
        starts = _StartsView(tag_nodes)
        lo = bisect_right(starts, node.start)
        hi = bisect_left(starts, node.end, lo=lo)
        return tag_nodes[lo:hi]

    def lowest_ancestor_by_tag(self, node: Node, tag: str) -> Node | None:
        current = self.parent(node)
        while current is not None:
            if current.tag == tag:
                return current
            current = self.parent(current)
        return None

    def max_depth(self) -> int:
        return max(node.level for node in self._nodes)

    def summary(self) -> dict[str, int]:
        return {
            "nodes": len(self._nodes),
            "tags": len(self._by_tag),
            "max_depth": self.max_depth(),
        }


class _StartsView(Sequence[int]):
    """Zero-copy view of the start labels of a node list, for bisect."""

    __slots__ = ("_nodes",)

    def __init__(self, nodes: Sequence[Node]):
        self._nodes = nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, i):  # type: ignore[override]
        return self._nodes[i].start


def object_document(document: Document) -> ObjectDocument:
    """The object twin of a columnar document (fresh nodes)."""
    return ObjectDocument(
        [
            Node(n.start, n.end, n.level, n.tag, n.index, n.parent_index)
            for n in document.nodes
        ],
        name=document.name,
    )


# -- the recursive writer -----------------------------------------------------


def write_xml_recursive(
    document: ObjectDocument, out: TextIO, indent: int = 2
) -> None:
    """Serialize by recursion over ``children`` (one ``write`` per line).

    Python-level recursion one frame per level: a document deeper than
    the interpreter's recursion limit raises ``RecursionError``.
    """
    newline = "\n" if indent else ""

    def emit(node: Node) -> None:
        pad = " " * (indent * node.level)
        children = document.children(node)
        if not children:
            out.write(f"{pad}<{node.tag}/>{newline}")
            return
        out.write(f"{pad}<{node.tag}>{newline}")
        for child in children:
            emit(child)
        out.write(f"{pad}</{node.tag}>{newline}")

    emit(document.root)


# -- object apply_delta ---------------------------------------------------------


def apply_delta_objects(document: ObjectDocument, delta) -> AppliedDelta:
    """Apply one delta by rebuilding every node (``document`` field holds
    an :class:`ObjectDocument`)."""
    if isinstance(delta, InsertSubtree):
        return _apply_insert(document, delta)
    if isinstance(delta, DeleteSubtree):
        return _apply_delete(document, delta)
    if isinstance(delta, RenameTag):
        return _apply_rename(document, delta)
    raise MaintenanceError(f"unknown delta object {delta!r}")


def _node_at_start(document: ObjectDocument, start: int) -> Node:
    nodes = document.nodes
    i = bisect_left(_StartsView(nodes), start)
    if i < len(nodes) and nodes[i].start == start:
        return nodes[i]
    raise MaintenanceError(
        f"no node with start label {start} in document {document.name!r}"
    )


def _subtree_end_index(document: ObjectDocument, node: Node) -> int:
    return bisect_left(_StartsView(document.nodes), node.end, lo=node.index + 1)


def _apply_insert(document: ObjectDocument, delta: InsertSubtree) -> AppliedDelta:
    parent = _node_at_start(document, delta.parent_start)
    children = document.children(parent)
    if delta.position > len(children):
        raise MaintenanceError(
            f"insert position {delta.position} exceeds the {len(children)}"
            f" children of node @{parent.start}"
        )
    subtree = object_document(
        document_from_tuples(delta.rows, name="inserted-subtree")
    )
    if delta.position == len(children):
        cut = parent.end
        at = _subtree_end_index(document, parent)
    else:
        anchor = children[delta.position]
        cut = anchor.start
        at = anchor.index
    count = len(subtree)
    width = 2 * count

    nodes: list[Node] = []
    old = document.nodes
    for node in old[:at]:
        nodes.append(Node(
            node.start,
            node.end + width if node.end >= cut else node.end,
            node.level, node.tag, node.index, node.parent_index,
        ))
    inserted: list[tuple[str, int, int, int]] = []
    for sub in subtree.nodes:
        parent_index = (
            parent.index if sub.parent_index < 0 else at + sub.parent_index
        )
        grafted = Node(
            cut + sub.start, cut + sub.end,
            parent.level + 1 + sub.level, sub.tag,
            at + sub.index, parent_index,
        )
        nodes.append(grafted)
        inserted.append(
            (grafted.tag, grafted.start, grafted.end, grafted.level)
        )
    for node in old[at:]:
        parent_index = (
            node.parent_index + count
            if node.parent_index >= at else node.parent_index
        )
        nodes.append(Node(
            node.start + width, node.end + width,
            node.level, node.tag, node.index + count, parent_index,
        ))
    return AppliedDelta(
        document=ObjectDocument(nodes, name=document.name),
        kind=delta.kind,
        touched_tags=frozenset(tag for tag, __, __, __ in inserted),
        shift_start=cut,
        shift_amount=width,
        inserted=tuple(inserted),
    )


def _apply_delete(document: ObjectDocument, delta: DeleteSubtree) -> AppliedDelta:
    root = _node_at_start(document, delta.root_start)
    if root.parent_index < 0:
        raise MaintenanceError("cannot delete the document root")
    first = root.index
    last = _subtree_end_index(document, root)
    count = last - first
    a, b = root.start, root.end
    width = b - a + 1

    nodes: list[Node] = []
    old = document.nodes
    for node in old[:first]:
        nodes.append(Node(
            node.start,
            node.end - width if node.end > b else node.end,
            node.level, node.tag, node.index, node.parent_index,
        ))
    for node in old[last:]:
        parent_index = (
            node.parent_index - count
            if node.parent_index >= last else node.parent_index
        )
        nodes.append(Node(
            node.start - width, node.end - width,
            node.level, node.tag, node.index - count, parent_index,
        ))
    return AppliedDelta(
        document=ObjectDocument(nodes, name=document.name),
        kind=delta.kind,
        touched_tags=frozenset(node.tag for node in old[first:last]),
        shift_start=a,
        shift_amount=-width,
        deleted_range=(a, b),
    )


def _apply_rename(document: ObjectDocument, delta: RenameTag) -> AppliedDelta:
    target = _node_at_start(document, delta.node_start)
    old_tag = target.tag
    touched = (
        frozenset() if old_tag == delta.new_tag
        else frozenset((old_tag, delta.new_tag))
    )
    nodes = [
        Node(
            node.start, node.end, node.level,
            delta.new_tag if node.index == target.index else node.tag,
            node.index, node.parent_index,
        )
        for node in document.nodes
    ]
    return AppliedDelta(
        document=ObjectDocument(nodes, name=document.name),
        kind=delta.kind,
        touched_tags=touched,
        shift_start=0,
        shift_amount=0,
        renamed=(target.start, old_tag, delta.new_tag),
    )
