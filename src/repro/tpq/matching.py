"""Efficient computation of TPQ solution nodes.

This is the materialization engine: given a view pattern ``v`` and a data
tree ``T``, the materialized view ``T_v`` consists exactly of the solution
nodes of ``v`` (every node participating in at least one embedding), grouped
by query node.  The two-pass algorithm here runs in
``O(sum_q |L_q| * deg(q))`` using region-label sweeps:

1. **Bottom-up viability** — a data node is viable for query node ``q`` if
   for every child edge of ``q`` it has a viable partner below it.
2. **Top-down reachability** — a viable node is a solution node if it is the
   pattern root, or it has a solution-node partner above it.

Both passes exploit the nesting property of region labels: two regions are
either disjoint or nested, so "has a viable descendant" reduces to a binary
search over start labels, and "has a solution ancestor" to a merge sweep.
They run on node indexes — the document's per-tag index arrays and its
label columns — and only the solution nodes are built as flyweight
:class:`Node` objects.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.tpq.pattern import Pattern, PatternNode
from repro.xmltree.document import Columns, Document, Node


def solution_nodes(document: Document, pattern: Pattern) -> dict[str, list[Node]]:
    """Solution nodes of ``pattern`` in ``document``, per query-node tag.

    Returns a dict mapping each pattern tag to its solution nodes in
    document order.  If any tag has no solution node, all lists are empty
    (the pattern has no match at all).
    """
    return {
        tag: list(document.nodes_at(rows))
        for tag, rows in solution_indexes(document, pattern).items()
    }


def solution_indexes(
    document: Document, pattern: Pattern
) -> dict[str, Sequence[int]]:
    """:func:`solution_nodes` as node indexes (ascending), no nodes built."""
    viable = _bottom_up_viable(document, pattern)
    solutions = _top_down_solutions(document.columns, pattern, viable)
    if any(not rows for rows in solutions.values()):
        return {tag: [] for tag in pattern.tags()}
    return solutions


def _bottom_up_viable(
    document: Document, pattern: Pattern
) -> dict[str, Sequence[int]]:
    """First pass: per query node, the indexes of the nodes satisfying the
    subtree below it."""
    columns = document.columns
    viable: dict[str, Sequence[int]] = {}
    # Process pattern nodes children-first (reverse preorder works since
    # preorder lists parents before children).
    for qnode in reversed(pattern.nodes):
        survivors: Sequence[int] = document.tag_indexes(qnode.tag)
        for child in qnode.children:
            survivors = _filter_has_partner_below(
                columns, survivors, viable[child.tag], child
            )
            if not survivors:
                break
        viable[qnode.tag] = survivors
    return viable


def _filter_has_partner_below(
    columns: Columns,
    candidates: Sequence[int],
    partners: Sequence[int],
    child_qnode: PatternNode,
) -> list[int]:
    """Keep candidates with a partner below them along ``child_qnode.axis``."""
    if not partners:
        return []
    if child_qnode.axis.is_pc:
        parent = columns.parent
        parents = {parent[i] for i in partners}
        return [i for i in candidates if i in parents]
    start, end = columns.start, columns.end
    last = len(partners)
    result = []
    for i in candidates:
        # The first partner after the candidate in document order; by the
        # nesting property it is a descendant iff it starts inside the
        # candidate's region.
        j = bisect_right(partners, i)
        if j < last and start[partners[j]] < end[i]:
            result.append(i)
    return result


def _top_down_solutions(
    columns: Columns, pattern: Pattern, viable: dict[str, Sequence[int]]
) -> dict[str, Sequence[int]]:
    """Second pass: keep viable nodes reachable from a solution ancestor."""
    solutions: dict[str, Sequence[int]] = {}
    for qnode in pattern.nodes:  # preorder: parents first
        candidates = viable[qnode.tag]
        if qnode.parent is None:
            solutions[qnode.tag] = candidates
            continue
        above = solutions[qnode.parent.tag]
        if qnode.axis.is_pc:
            parent = columns.parent
            parents = set(above)
            solutions[qnode.tag] = [
                i for i in candidates if parent[i] in parents
            ]
        else:
            solutions[qnode.tag] = _filter_has_ancestor_in(
                columns, candidates, above
            )
    return solutions


def _filter_has_ancestor_in(
    columns: Columns, candidates: Sequence[int], ancestors: Sequence[int]
) -> list[int]:
    """Keep candidates that have a proper ancestor among ``ancestors``.

    Both inputs are in document order.  By the nesting property, a
    candidate lies inside some earlier ancestor's region iff the furthest
    end label among the ancestors before it lies beyond its start, so one
    merge sweep carrying that furthest end decides every candidate.
    """
    start, end = columns.start, columns.end
    result: list[int] = []
    reach = -1
    ai = 0
    n_ancestors = len(ancestors)
    for i in candidates:
        while ai < n_ancestors and ancestors[ai] < i:
            ancestor_end = end[ancestors[ai]]
            if ancestor_end > reach:
                reach = ancestor_end
            ai += 1
        if start[i] < reach:
            result.append(i)
    return result
