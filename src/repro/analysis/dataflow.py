"""Graph reachability / taint walking over the call graph.

Small, deterministic primitives the RL2xx rules and the ``--effects``
CLI share: breadth-first reachability with an optional node filter, and
shortest-witness path extraction.  All traversals visit successors in
sorted order, so witnesses (and therefore finding messages and baseline
fingerprints) are stable across runs and machines.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable


def reachable(
    graph,
    roots: Iterable[str],
    allowed: Callable[[str], bool] | None = None,
) -> dict[str, str | None]:
    """BFS forest from ``roots``: node -> predecessor (roots map to None).

    ``allowed`` prunes the walk — a node failing it is never entered
    (roots are always entered).  Deterministic: roots in given order,
    successors sorted by the graph's edge order.
    """
    parent: dict[str, str | None] = {}
    queue: deque[str] = deque()
    for root in roots:
        if root not in parent:
            parent[root] = None
            queue.append(root)
    while queue:
        node = queue.popleft()
        for succ in graph.successors(node):
            if succ in parent:
                continue
            if allowed is not None and not allowed(succ):
                continue
            parent[succ] = node
            queue.append(succ)
    return parent


def path_to(parent: dict[str, str | None], node: str) -> list[str]:
    """Root-to-node path through a BFS forest from :func:`reachable`."""
    path: list[str] = []
    cursor: str | None = node
    while cursor is not None:
        path.append(cursor)
        cursor = parent.get(cursor)
    path.reverse()
    return path


def first_reaching_path(
    graph,
    root: str,
    predicate: Callable[[str], bool],
    allowed: Callable[[str], bool] | None = None,
) -> list[str] | None:
    """Shortest ``[root, ..., hit]`` path to a node satisfying
    ``predicate``, or None.  BFS ties break on sorted successor order;
    ``allowed`` prunes which nodes may be traversed at all."""
    if predicate(root):
        return [root]
    parent = {root: None}
    queue: deque[str] = deque([root])
    while queue:
        node = queue.popleft()
        for succ in graph.successors(node):
            if succ in parent:
                continue
            if allowed is not None and not allowed(succ):
                continue
            parent[succ] = node
            if predicate(succ):
                return path_to(parent, succ)
            queue.append(succ)
    return None


def pretty_chain(chain: list[str]) -> str:
    """Human-readable call chain: qualnames joined by arrows, with the
    defining file only where it changes."""
    parts: list[str] = []
    last_path = ""
    for node in chain:
        node_path, _, qual = node.partition("::")
        if node_path != last_path:
            parts.append(f"{qual} [{node_path}]")
            last_path = node_path
        else:
            parts.append(qual)
    return " -> ".join(parts)
