"""Region-labelled XML document model.

A :class:`Document` stores its nodes in document order (ascending
``start`` label) as parallel columns — ``array('i')`` columns for start,
end, level and parent index, a tag-id column pointing into a
per-document tag table, and one array of node indexes per tag.  The
per-tag arrays double as the element storage the conventional
structural-join algorithms assume: :meth:`Document.tag_list` partitions
the instances by element type into per-type sorted lists.

A document holds no per-node Python object.  :class:`Node` is a
*flyweight*: ``doc.nodes[i]``, ``doc.root``, ``doc.tag_list(t)[k]`` and
every navigation method build a fresh ``Node`` from the columns on each
access.  Nodes compare and hash by their region label, so
``doc.nodes[i] == doc.nodes[i]`` holds, while ``doc.nodes[i] is
doc.nodes[i]`` is not promised.  Whole-document passes (the writer,
delta application, the DataGuide, the solution-node matcher) read
:attr:`Document.columns` instead of building flyweights.

Documents are immutable once built.  Use :class:`DocumentBuilder` (or the
parser / dataset generators) to construct them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.errors import ReproError


class Node:
    """A single element instance with its region label.

    Attributes:
        start: document-order rank of the start tag.
        end: rank of the end tag; the open interval (start, end) contains
            exactly the labels of this node's descendants.
        level: root-to-node path length (root is level 0).
        tag: element type name.
        index: position of this node in the document's node list
            (equals its rank in document order).
        parent_index: index of the parent node, or -1 for the root.
    """

    __slots__ = ("start", "end", "level", "tag", "index", "parent_index")

    def __init__(
        self,
        start: int,
        end: int,
        level: int,
        tag: str,
        index: int,
        parent_index: int,
    ):
        self.start = start
        self.end = end
        self.level = level
        self.tag = tag
        self.index = index
        self.parent_index = parent_index

    def label(self) -> tuple[int, int, int]:
        """Return the region label as a ``(start, end, level)`` tuple."""
        return (self.start, self.end, self.level)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Node({self.tag!r}, start={self.start}, end={self.end}, "
            f"level={self.level})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __lt__(self, other: "Node") -> bool:
        return self.start < other.start


class Columns(NamedTuple):
    """A document's parallel columns, one row per node in document order.

    Row ``i`` is the node with index ``i``; ``tags[tag_id[i]]`` is its
    element type.  The arrays belong to the document and are never
    mutated; documents derived from one another may share them.
    """

    start: array
    end: array
    level: array
    parent: array
    tag_id: array
    tags: tuple[str, ...]


class Document:
    """An immutable region-labelled XML tree.

    Args:
        nodes: all nodes in document order; ``nodes[i].index == i`` must hold.

    The constructor validates label consistency (document order, strictly
    nested regions, parent levels) so that every downstream component can
    rely on them.  :meth:`from_columns` builds a document from columns
    directly and runs the same validation.  :class:`DocumentBuilder` and
    delta application (:mod:`repro.maintenance.apply`) produce valid
    labels by construction and skip it.
    """

    def __init__(self, nodes: Sequence[Node], name: str = "document"):
        nodes = list(nodes)
        for i, node in enumerate(nodes):
            if node.index != i:
                raise ReproError(
                    f"node {node!r} has index {node.index}, expected {i}"
                )
        ids: dict[str, int] = {}
        self._init(
            Columns(
                array("i", [node.start for node in nodes]),
                array("i", [node.end for node in nodes]),
                array("i", [node.level for node in nodes]),
                array("i", [node.parent_index for node in nodes]),
                array("i", [ids.setdefault(node.tag, len(ids)) for node in nodes]),
                tuple(ids),
            ),
            name,
        )

    @classmethod
    def from_columns(cls, columns: Columns, name: str = "document") -> "Document":
        """A document over ``columns`` (validated like any other)."""
        document = cls.__new__(cls)
        document._init(columns, name)
        return document

    @classmethod
    def _trusted(
        cls, columns: Columns, by_tag: dict[str, array], name: str
    ) -> "Document":
        """A document over ``columns`` that are valid by construction,
        with ``by_tag`` as its per-tag index: neither is checked.  For
        builders that cannot produce bad labels (:class:`DocumentBuilder`,
        delta application); columns from anywhere else go through
        :meth:`from_columns`."""
        document = cls.__new__(cls)
        document.name = name
        document.columns = columns
        #: tag -> indexes of its nodes, ascending; only tags that occur.
        document._by_tag = by_tag
        return document

    def _init(self, columns: Columns, name: str) -> None:
        self.name = name
        self.columns = columns
        self._validate()
        self._by_tag = _tag_index(columns)

    def _validate(self) -> None:
        start, end, level, parent, tag_id, tags = self.columns
        n = len(start)
        if n == 0:
            raise ReproError("a document must contain at least one node")
        if not len(end) == len(level) == len(parent) == len(tag_id) == n:
            raise ReproError("document columns differ in length")
        if min(tag_id) < 0 or max(tag_id) >= len(tags):
            raise ReproError("tag id outside the document's tag table")
        if parent[0] != -1:
            raise ReproError("first node in document order must be the root")
        if start[0] >= end[0]:
            raise ReproError(f"node {self._node(0)!r} has start >= end")
        # Starts ascend and every parent is an earlier node, so a parent
        # always starts before its child: what is left to check is that
        # the child closes first and sits one level deeper.
        previous = start[0]
        for i, s, e, lv, p in zip(
            range(1, n), start[1:], end[1:], level[1:], parent[1:]
        ):
            if not (
                0 <= p < i and previous < s < e < end[p]
                and level[p] + 1 == lv
            ):
                self._reject(i)
            previous = s

    def _reject(self, i: int) -> None:
        """Raise the specific validation error for row ``i``."""
        start, end, level, parent = self.columns[:4]
        p = parent[i]
        if start[i] >= end[i]:
            raise ReproError(f"node {self._node(i)!r} has start >= end")
        if start[i - 1] >= start[i]:
            raise ReproError(f"node {self._node(i)!r} out of document order")
        if not 0 <= p < i:
            raise ReproError(
                f"node {self._node(i)!r} has parent index {p}, which is not"
                " an earlier node"
            )
        if not (start[p] < start[i] and end[i] < end[p]):
            raise ReproError(
                f"node {self._node(i)!r} not inside its parent's region"
            )
        raise ReproError(
            f"node {self._node(i)!r} level inconsistent with parent"
        )

    def _node(self, i: int) -> Node:
        """The flyweight for row ``i`` (``0 <= i < len(self)``)."""
        start, end, level, parent, tag_id, tags = self.columns
        return Node(start[i], end[i], level[i], tags[tag_id[i]], i, parent[i])

    # -- basic accessors ---------------------------------------------------

    @property
    def root(self) -> Node:
        """The document root node."""
        return self._node(0)

    @property
    def nodes(self) -> Sequence[Node]:
        """All nodes in document order (a view: len, index, slice, iter)."""
        return NodeView(self, range(len(self.columns.start)))

    def __len__(self) -> int:
        return len(self.columns.start)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def tags(self) -> set[str]:
        """The set of element types occurring in the document."""
        return set(self._by_tag)

    def tag_list(self, tag: str) -> Sequence[Node]:
        """All ``tag``-type nodes in document order (empty if absent).

        This is the per-element-type partition used as input streams by the
        conventional structural-join algorithms (element scheme).
        """
        return self.nodes_at(self.tag_indexes(tag))

    def nodes_at(self, indexes: Sequence[int]) -> Sequence[Node]:
        """The nodes at ``indexes``, as a view like :attr:`nodes`."""
        return NodeView(self, indexes)

    def tag_indexes(self, tag: str) -> array:
        """Indexes of the ``tag``-type nodes, ascending (empty if absent);
        the document's own array, read only."""
        return self._by_tag.get(tag, _NO_ROWS)

    def tag_count(self, tag: str) -> int:
        """Number of ``tag``-type nodes."""
        return len(self.tag_indexes(tag))

    def index_at(self, start: int) -> int:
        """Index of the node whose start label is ``start``, or -1."""
        starts = self.columns.start
        i = bisect_left(starts, start)
        if i < len(starts) and starts[i] == start:
            return i
        return -1

    # -- navigation ---------------------------------------------------------

    def parent(self, node: Node) -> Node | None:
        """Parent of ``node``, or None for the root."""
        if node.parent_index < 0:
            return None
        return self._node(node.parent_index)

    def children(self, node: Node) -> list[Node]:
        """Children of ``node`` in document order."""
        return [self._node(i) for i in self.child_indexes(node.index)]

    def child_indexes(self, index: int) -> list[int]:
        """Indexes of the children of the node at ``index``."""
        start, end = self.columns.start, self.columns.end
        result = []
        n = len(start)
        stop = end[index]
        i = index + 1
        while i < n and start[i] < stop:
            result.append(i)
            # Skip over the whole subtree of child `i`: descendants occupy
            # a contiguous index range because nodes are in document order.
            i = bisect_left(start, end[i], i + 1)
        return result

    def descendants(self, node: Node) -> Sequence[Node]:
        """All proper descendants of ``node`` in document order."""
        return NodeView(
            self, range(node.index + 1, self.subtree_end(node.index))
        )

    def ancestors(self, node: Node) -> list[Node]:
        """Proper ancestors of ``node``, nearest first."""
        parent = self.columns.parent
        result = []
        i = node.parent_index
        while i >= 0:
            result.append(self._node(i))
            i = parent[i]
        return result

    def subtree_end(self, index: int) -> int:
        """Index one past the last descendant of the node at ``index``."""
        # Descendants are exactly the nodes with start in (start, end).
        start = self.columns.start
        return bisect_left(start, self.columns.end[index], index + 1)

    def descendants_by_tag(self, node: Node, tag: str) -> list[Node]:
        """``tag``-type proper descendants of ``node`` in document order."""
        rows = self._by_tag.get(tag)
        if not rows:
            return []
        start, end, level, parent, __, __ = self.columns
        lo = bisect_right(rows, node.index)
        hi = bisect_left(rows, self.subtree_end(node.index), lo)
        return [
            Node(start[i], end[i], level[i], tag, i, parent[i])
            for i in rows[lo:hi]
        ]

    def lowest_ancestor_by_tag(self, node: Node, tag: str) -> Node | None:
        """The nearest proper ancestor of ``node`` with element type ``tag``."""
        parent, tag_id, tags = self.columns[3:]
        i = node.parent_index
        while i >= 0:
            if tags[tag_id[i]] == tag:
                return self._node(i)
            i = parent[i]
        return None

    # -- statistics ----------------------------------------------------------

    def max_depth(self) -> int:
        """Length of the longest root-to-leaf path (levels; root counts 0)."""
        return max(self.columns.level)

    def summary(self) -> dict[str, int]:
        """Coarse statistics useful in benchmark reports."""
        return {
            "nodes": len(self),
            "tags": len(self._by_tag),
            "max_depth": self.max_depth(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Document({self.name!r}, nodes={len(self)})"


_NO_ROWS = array("i")


def _tag_index(columns: Columns) -> dict[str, array]:
    """tag -> indexes of its rows, ascending; only tags that occur."""
    rows: list[list[int]] = [[] for __ in columns.tags]
    for i, tag_id in enumerate(columns.tag_id):
        rows[tag_id].append(i)
    return {
        tag: array("i", indexes)
        for tag, indexes in zip(columns.tags, rows)
        if indexes
    }


class NodeView(Sequence[Node]):
    """Flyweight nodes of ``document`` at the indexes ``rows`` (a range or
    an index array), as a read-only sequence; a slice is another view.
    Bulk consumers :meth:`gather` columns at ``rows`` instead of
    iterating."""

    __slots__ = ("document", "rows")

    def __init__(self, document: Document, rows: Sequence[int]):
        self.document = document
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):  # type: ignore[override]
        if isinstance(i, slice):
            return NodeView(self.document, self.rows[i])
        return self.document._node(self.rows[i])

    def __iter__(self) -> Iterator[Node]:
        return map(self.document._node, self.rows)

    def gather(self, column: array) -> list[int]:
        """``column`` (one of ``document.columns``) at this view's rows."""
        return list(map(column.__getitem__, self.rows))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{len(self)} nodes of {self.document!r}>"


class DocumentBuilder:
    """Incremental builder assigning region labels during construction.

    Usage::

        b = DocumentBuilder()
        with b.element("site"):
            with b.element("regions"):
                b.leaf("item")
        doc = b.build()

    ``start``/``end`` counters advance by one for every open and close event,
    which yields the strict-containment property the label algebra requires.
    The builder appends straight to the document's columns; ``open``,
    ``close`` and ``leaf`` return the index of the node they touched.
    """

    def __init__(self, name: str = "document"):
        self.name = name
        self._counter = 0
        self._start = array("i")
        self._end = array("i")
        self._level = array("i")
        self._parent = array("i")
        self._tag_id = array("i")
        self._tag_ids: dict[str, int] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        """Number of elements opened so far."""
        return len(self._start)

    # -- low-level API -------------------------------------------------------

    def open(self, tag: str) -> int:
        """Open an element; returns its index (its end is set by close())."""
        stack = self._stack
        index = len(self._start)
        self._start.append(self._counter)
        self._end.append(-1)
        self._level.append(len(stack))
        self._parent.append(stack[-1] if stack else -1)
        tag_ids = self._tag_ids
        tag_id = tag_ids.get(tag)
        if tag_id is None:
            tag_id = tag_ids[tag] = len(tag_ids)
        self._tag_id.append(tag_id)
        self._counter += 1
        stack.append(index)
        return index

    def close(self) -> int:
        """Close the most recently opened element; returns its index."""
        if not self._stack:
            raise ReproError("close() without matching open()")
        index = self._stack.pop()
        self._end[index] = self._counter
        self._counter += 1
        return index

    def leaf(self, tag: str) -> int:
        """Convenience: open and immediately close an element."""
        self.open(tag)
        return self.close()

    # -- context-manager sugar -------------------------------------------------

    def element(self, tag: str) -> "_ElementContext":
        """Context manager opening ``tag`` on enter and closing it on exit."""
        return _ElementContext(self, tag)

    def build(self) -> Document:
        """Finalize and return the immutable document."""
        if self._stack:
            raise ReproError(
                f"{len(self._stack)} element(s) still open; close them first"
            )
        if not self._start:
            raise ReproError("a document must contain at least one node")
        # Open and close events take consecutive counters, so the labels
        # are valid by construction; what is left is a second root, which
        # would open after the first one closed.
        if self._end[0] != self._counter - 1:
            second = self._parent.index(-1, 1)
            raise ReproError(
                f"a second root opens at label {self._start[second]};"
                " a document has exactly one root"
            )
        # Copies: a builder that keeps going must not reach into the
        # columns of a document it already built.
        columns = Columns(
            self._start[:], self._end[:], self._level[:], self._parent[:],
            self._tag_id[:], tuple(self._tag_ids),
        )
        return Document._trusted(columns, _tag_index(columns), self.name)


class _ElementContext:
    __slots__ = ("_builder", "_tag")

    def __init__(self, builder: DocumentBuilder, tag: str):
        self._builder = builder
        self._tag = tag

    def __enter__(self) -> int:
        return self._builder.open(self._tag)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._builder.close()


def document_from_tuples(
    rows: Iterable[tuple[str, int]], name: str = "document"
) -> Document:
    """Build a document from ``(tag, depth)`` rows in document order.

    A compact format handy in tests: depth 0 is the root, and each row
    attaches under the most recent row of depth one less.
    """
    builder = DocumentBuilder(name)
    depth = -1
    for tag, row_depth in rows:
        if row_depth > depth + 1:
            raise ReproError(
                f"row ({tag!r}, {row_depth}) skips levels (previous depth {depth})"
            )
        while depth >= row_depth:
            builder.close()
            depth -= 1
        builder.open(tag)
        depth = row_depth
    while depth >= 0:
        builder.close()
        depth -= 1
    return builder.build()
