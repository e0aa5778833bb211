"""Tuple storage scheme (T) — InterJoin's view organization.

A view with *n* nodes is materialized as a sequence of *n*-tuples, one per
embedding of the view in the data, sorted in ascending order of the
composite key ``(e_1.start, ..., e_n.start)`` where component order follows
the view's preorder (paper Section I).  A data node contributing to many
view matches is duplicated across tuples — the redundancy the paper's
motivating experiment measures.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import StorageError
from repro.storage.lists import ListCursor, StoredList
from repro.storage.pager import Pager
from repro.storage.records import tuple_codec
from repro.tpq.pattern import Pattern
from repro.xmltree.document import Node


class TupleView:
    """A view materialized in the tuple scheme.

    Attributes:
        pattern: the view's tree pattern.
        tags: component order (the view's preorder tags).
        tuples: a single :class:`StoredList` of tuple records, each a
            ``tuple[ElementEntry, ...]`` aligned with ``tags``.
    """

    scheme_name = "T"

    def __init__(self, pattern: Pattern, pager: Pager,
                 matches: Sequence[tuple[Node, ...]]):
        self.pattern = pattern
        self.pager = pager
        self.tags = pattern.tags()
        codec = tuple_codec(len(self.tags))
        columns = codec.make_columns()
        for match in sorted(
            matches, key=lambda m: tuple(node.start for node in m)
        ):
            columns.append(match)  # the nodes' labels, per component
        self.tuples = StoredList.from_columns(
            pager, codec, columns, name=pattern.to_xpath()
        )

    # -- maintenance ---------------------------------------------------------

    def relabeled(self, ops: Sequence[tuple[int, int]]) -> "TupleView":
        """Copy-on-write clone with all component labels shifted (the
        incremental-maintenance SHIFT repair); the shift map is monotone,
        so the composite-key sort order survives."""
        view = TupleView.__new__(TupleView)
        view.pattern = self.pattern
        view.pager = self.pager
        view.tags = list(self.tags)
        view.tuples = self.tuples.shifted(ops)
        return view

    # -- access ------------------------------------------------------------------

    def component_index(self, tag: str) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            raise StorageError(f"view has no component for tag {tag!r}") from None

    def cursor(self) -> ListCursor:
        return self.tuples.cursor()

    def __len__(self) -> int:
        return len(self.tuples)

    # -- statistics ----------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.tuples.size_bytes

    @property
    def num_pages(self) -> int:
        return self.tuples.num_pages

    def redundancy(self) -> float:
        """Average number of tuples a distinct node occurs in.

        1.0 means no duplication (each node appears in exactly one match);
        values above 1 quantify the tuple scheme's data redundancy.
        """
        if not len(self.tuples):
            return 0.0
        distinct: set[tuple[int, int]] = set()
        total = 0
        for record in self.tuples.scan():
            for entry in record:
                distinct.add((entry.start, entry.end))
                total += 1
        return total / len(distinct) if distinct else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TupleView({self.pattern.to_xpath()!r}, tuples={len(self.tuples)})"
        )
