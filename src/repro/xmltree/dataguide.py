"""DataGuide path summaries for query pruning and statistics.

A DataGuide (Goldman & Widom, VLDB 1997) is the deterministic summary of
all label paths occurring in a document: one summary node per distinct
root path, annotated here with its instance count.  Two uses in this
repository:

* **satisfiability pruning** — a TPQ that cannot be embedded into the
  summary cannot match the document at all, so the planner can answer
  "0 matches" without touching any view (``may_match``);
* **path statistics** — instance counts per summary node give upper
  bounds for the solution-list sizes used by the selection estimators.

The summary is built in one pass over the document and is typically tiny
(one node per distinct path, independent of how many instances share it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tpq.pattern import Pattern, PatternNode
from repro.xmltree.document import Document


@dataclass
class GuideNode:
    """One summary node: a distinct label path from the root."""

    tag: str
    depth: int
    count: int = 0
    children: dict[str, "GuideNode"] = field(default_factory=dict)

    def child(self, tag: str) -> "GuideNode | None":
        return self.children.get(tag)


class DataGuide:
    """The strong DataGuide of a document, with instance counts."""

    def __init__(self, document: Document):
        columns = document.columns
        self.root = GuideNode(tag=columns.tags[columns.tag_id[0]], depth=0)
        self._size = 1
        self._build(document)

    def _build(self, document: Document) -> None:
        # One pass over the parent and tag-id columns (a parent precedes
        # its children) maps every document node to its summary node,
        # kept as a bare ``[count, {tag id: child}]`` pair ...
        __, __, __, parent, tag_id, tags = document.columns
        top: list = [1, {}]
        summary_of = [top] * len(tag_id)
        for i, p, t in zip(range(1, len(tag_id)), parent[1:], tag_id[1:]):
            children = summary_of[p][1]
            child = children.get(t)
            if child is None:
                child = children[t] = [0, {}]
            child[0] += 1
            summary_of[i] = child
        # ... and the few summary nodes become GuideNodes afterwards.
        self.root.count = 1
        stack = [(self.root, top[1])]
        while stack:
            guide, children = stack.pop()
            for t, (count, grandchildren) in children.items():
                child = GuideNode(
                    tag=tags[t], depth=guide.depth + 1, count=count
                )
                guide.children[child.tag] = child
                self._size += 1
                stack.append((child, grandchildren))

    def __len__(self) -> int:
        """Number of distinct label paths in the document."""
        return self._size

    # -- navigation ------------------------------------------------------------

    def nodes(self) -> list[GuideNode]:
        result = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(node.children.values())
        return result

    def paths(self) -> list[tuple[str, ...]]:
        """All distinct root paths as tag tuples."""
        result: list[tuple[str, ...]] = []

        def walk(node: GuideNode, prefix: tuple[str, ...]) -> None:
            path = prefix + (node.tag,)
            result.append(path)
            for child in node.children.values():
                walk(child, path)

        walk(self.root, ())
        return result

    def count_of(self, path: tuple[str, ...] | list[str]) -> int:
        """Instances of the exact root path ``path`` (0 if absent)."""
        node = self.root
        if not path or path[0] != node.tag:
            return 0
        for tag in path[1:]:
            node = node.child(tag)
            if node is None:
                return 0
        return node.count

    # -- pruning --------------------------------------------------------------------

    def may_match(self, pattern: Pattern) -> bool:
        """False means the pattern certainly has no match in the document.

        Embeds the pattern into the summary: an embedding of the pattern
        into the document induces one into the DataGuide (same axes over
        summary paths), so summary-unsatisfiable implies
        document-unsatisfiable.  True is *not* a match guarantee (the
        summary merges instances), only the absence of a cheap refutation.
        """
        return self._embeds(pattern.root, self._descendants_pool(self.root))

    def _descendants_pool(self, origin: GuideNode) -> list[GuideNode]:
        pool = []
        stack = list(origin.children.values())
        while stack:
            node = stack.pop()
            pool.append(node)
            stack.extend(node.children.values())
        return pool + [origin]

    def _embeds(self, qnode: PatternNode, pool: list[GuideNode]) -> bool:
        for candidate in pool:
            if candidate.tag != qnode.tag:
                continue
            if self._embeds_below(qnode, candidate):
                return True
        return False

    def _embeds_below(self, qnode: PatternNode, at: GuideNode) -> bool:
        for child in qnode.children:
            if child.axis.is_pc:
                pool = list(at.children.values())
            else:
                pool = [
                    node
                    for node in self._descendants_pool(at)
                    if node is not at
                ]
            if not self._embeds(child, pool):
                return False
        return True
