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
A maintenance commit *derives* the next guide from its delta records
(``derived``): only the summary nodes on touched paths are copied and
recounted, and the outgoing guide stays valid for pinned readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.tpq.pattern import Pattern, PatternNode
from repro.xmltree.document import Document


@dataclass
class GuideNode:
    """One summary node: a distinct label path from the root."""

    tag: str
    depth: int
    count: int = 0
    children: dict[str, "GuideNode"] = field(default_factory=dict)


def _own(node: GuideNode, fresh: dict[int, GuideNode]) -> GuideNode:
    """``node`` if this derivation made it, else its first copy."""
    if id(node) in fresh:
        return node
    copy = GuideNode(node.tag, node.depth, node.count, dict(node.children))
    fresh[id(copy)] = copy
    return copy


class DataGuide:
    """The strong DataGuide of a document, with instance counts.

    Never mutated once built: :meth:`derived` copies what it changes.
    """

    def __init__(self, document: Document):
        #: The document summarized (a delete's paths are read from it).
        self.document = document
        self.root, self._size = GuideNode("", -1), 0  # above the root
        self._merge(document, 0, len(document), 1, {})
        [self.root] = self.root.children.values()

    def derived(self, changes: Sequence) -> "DataGuide":
        """The guide of the document the ``AppliedDelta`` records
        ``changes`` lead to from this one's.

        Copy-on-write along the touched paths: an insert adds its
        subtree's paths under its parent's path, a delete subtracts its
        subtree's paths (read from the pre-delta document) and drops
        paths left with no instance, and a rename is both.  ``self`` is
        left untouched.  A root rename re-roots the summary: a full build.
        """
        guide = object.__new__(DataGuide)
        guide.root, guide._size = self.root, self._size
        fresh: dict[int, GuideNode] = {}
        before = self.document
        for change in changes:
            after = change.document
            if change.inserted:
                first = after.index_at(change.inserted[0][1])
                stop = first + len(change.inserted)
            else:
                at = (change.deleted_range or change.renamed)[0]
                first = before.index_at(at)
                if not first:
                    return DataGuide(changes[-1].document)
                stop = before.subtree_end(first)
                guide._merge(before, first, stop, -1, fresh)
            if not change.deleted_range:
                guide._merge(after, first, stop, 1, fresh)
            before = after
        guide.document = before
        return guide

    def _merge(self, document, first, stop, sign, fresh) -> None:
        """Add ``sign`` per instance of the paths of ``document``'s rows
        ``[first, stop)`` (one subtree) below its parent's path.  A
        summary node is copied the first time it changes (``fresh``
        holds the copies), and a path left with no instance is dropped."""
        node = self.root = _own(self.root, fresh)
        for above in reversed(document.ancestors(document.nodes[first])[:-1]):
            child = _own(node.children[above.tag], fresh)
            node.children[above.tag] = child
            node = child
        __, __, __, parent, tag_id, tags = document.columns
        # One pass over the parent and tag-id columns (a parent precedes
        # its children) maps every row to a bare ``[count, {tag id:
        # child}]`` pair ...
        top = {tag_id[first]: [1, {}]}
        summary_of = [top[tag_id[first]]] * (stop - first)
        for i, p, t in zip(range(1, stop - first), parent[first + 1:stop],
                           tag_id[first + 1:stop]):
            children = summary_of[p - first][1]
            pair = children.get(t)
            if pair is None:
                pair = children[t] = [0, {}]
            pair[0] += 1
            summary_of[i] = pair
        # ... and the few summary nodes are merged in afterwards.
        stack = [(node, top)]
        while stack:
            node, children = stack.pop()
            for t, (count, below) in children.items():
                tag = tags[t]
                child = node.children.get(tag)
                if child is None:
                    child = GuideNode(tag, node.depth + 1)
                    fresh[id(child)] = child
                    self._size += 1
                child = node.children[tag] = _own(child, fresh)
                child.count += sign * count
                if not child.count:
                    del node.children[tag]
                    self._size -= 1
                stack.append((child, below))

    def __len__(self) -> int:
        """Number of distinct label paths in the document."""
        return self._size

    # -- navigation ------------------------------------------------------------

    def nodes(self) -> list[GuideNode]:
        return self._descendants_pool(self.root)

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
            node = node.children.get(tag)
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
                pool = self._descendants_pool(at)[:-1]  # all but ``at``
            if not self._embeds(child, pool):
                return False
        return True
