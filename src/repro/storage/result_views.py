"""Materializing query results as views (paper Section IV-B, feature 2).

ViewJoin keeps its intermediate solutions in the same DAG structure the
linked-element scheme stores, so a query's result can itself be registered
as a materialized view and reused to answer later queries.  This module
turns an evaluation's matches back into per-tag solution-node lists and
feeds them through the regular view builders, avoiding a second matching
pass over the document.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import StorageError
from repro.storage.catalog import AnyView, Scheme
from repro.storage.element import ElementView
from repro.storage.linked import LinkedElementView
from repro.storage.pager import Pager
from repro.storage.tuples import TupleView
from repro.tpq.pattern import Pattern
from repro.xmltree.document import Document, Node


def solution_lists_from_matches(
    document: Document,
    query: Pattern,
    matches: Sequence[tuple],
) -> dict[str, list[Node]]:
    """Recover per-tag solution-node lists from emitted matches.

    Match components are bare region labels; the document maps them back
    to its :class:`Node` objects (needed for parent links when building
    pc child pointers).
    """
    tags = query.tags()
    seen: dict[str, set[int]] = {tag: set() for tag in tags}
    for match in matches:
        if len(match) != len(tags):
            raise StorageError(
                f"match arity {len(match)} does not fit query arity"
                f" {len(tags)}"
            )
        for tag, entry in zip(tags, match):
            seen[tag].add(entry.start)
    return {
        tag: list(document.nodes_at(_indexes_at(document, sorted(seen[tag]))))
        for tag in tags
    }


def _indexes_at(document: Document, starts: Sequence[int]) -> list[int]:
    """Node indexes of the nodes with the given start labels."""
    indexes = [document.index_at(start) for start in starts]
    if -1 in indexes:
        missing = starts[indexes.index(-1)]
        raise StorageError(
            f"match references a start label not in the document: {missing}"
        )
    return indexes


def materialize_from_matches(
    document: Document,
    query: Pattern,
    matches: Sequence[tuple],
    scheme: Scheme | str,
    pager: Pager | None = None,
    partial_distance: int = 1,
) -> AnyView:
    """Store an already-computed query result as a materialized view.

    The result view is indistinguishable from materializing ``query``
    directly (solution nodes are exactly the nodes occurring in matches),
    but skips the matching pass — the "solution for storing the query
    result as a materialized view" the paper attributes to the DAG F.
    """
    scheme = Scheme.parse(scheme)
    if pager is None:
        pager = Pager()
    lists = solution_lists_from_matches(document, query, matches)
    if scheme is Scheme.TUPLE:
        node_matches = [
            tuple(document.nodes_at(
                _indexes_at(document, [e.start for e in match])
            ))
            for match in matches
        ]
        return TupleView(query, pager, node_matches)
    if scheme is Scheme.ELEMENT:
        return ElementView(query, pager, lists)
    return LinkedElementView(
        query,
        pager,
        lists,
        partial=(scheme is Scheme.LINKED_PARTIAL),
        partial_distance=partial_distance,
    )
