"""Applying deltas to an immutable region-labelled document.

Region labels make delta application a *piecewise shift*: a subtree of
``k`` nodes occupies one contiguous interval of ``2k`` start/end counters
(one per open and close event), so

* inserting it at counter ``c`` shifts every surviving label ``>= c``
  up by ``2k`` and leaves labels ``< c`` alone;
* deleting the subtree spanning ``[a, b]`` removes exactly the labels in
  that interval and shifts every surviving label ``>= a`` down by
  ``b - a + 1`` (an ancestor keeps its start and shifts only its end —
  the single threshold covers both because no surviving label lies
  inside ``[a, b]``);
* renaming shifts nothing.

:func:`apply_delta` builds the post-delta :class:`Document` — column
slices of the input plus shifted copies of the moved runs; the input
document is never mutated — and an :class:`AppliedDelta` record
carrying the shift map, the touched element types and the inserted /
deleted label material — everything :mod:`repro.maintenance.repair`
needs to fix a materialized view without re-matching it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import MaintenanceError, ReproError
from repro.maintenance.deltas import (
    Delta,
    DeleteSubtree,
    InsertSubtree,
    RenameTag,
)
from repro.xmltree.document import Columns, Document, document_from_tuples


@dataclass(frozen=True)
class AppliedDelta:
    """One applied delta plus the relabelling facts view repair needs.

    Attributes:
        document: the post-delta document.
        kind: the delta's ``kind`` string.
        touched_tags: element types whose membership changed (inserted,
            deleted, or renamed-from/-to); a view over disjoint tags keeps
            its solution sets and needs at most a label shift.
        shift_start / shift_amount: every surviving pre-delta label
            ``>= shift_start`` moved by ``shift_amount`` (0 for renames).
        inserted: ``(tag, start, end, level)`` of each inserted node, in
            document order, with **post-delta** labels.
        deleted_range: the pre-delta ``[a, b]`` label interval removed by
            a delete, else None.
        renamed: ``(node_start, old_tag, new_tag)`` for a rename, else None.
    """

    document: Document
    kind: str
    touched_tags: frozenset[str]
    shift_start: int
    shift_amount: int
    inserted: tuple[tuple[str, int, int, int], ...] = ()
    deleted_range: tuple[int, int] | None = None
    renamed: tuple[int, str, str] | None = None

    def shift(self, label: int) -> int:
        """Map one surviving pre-delta label into the post-delta space."""
        if self.shift_amount and label >= self.shift_start:
            return label + self.shift_amount
        return label


def apply_delta(document: Document, delta: Delta) -> AppliedDelta:
    """Apply one delta; returns the new document plus the change record."""
    if isinstance(delta, InsertSubtree):
        return _apply_insert(document, delta)
    if isinstance(delta, DeleteSubtree):
        return _apply_delete(document, delta)
    if isinstance(delta, RenameTag):
        return _apply_rename(document, delta)
    raise MaintenanceError(f"unknown delta object {delta!r}")


def apply_deltas(
    document: Document, deltas: Iterable[Delta]
) -> tuple[Document, list[AppliedDelta]]:
    """Apply ``deltas`` in order; returns the final document and the
    per-delta change records (each in the label space of its turn)."""
    changes: list[AppliedDelta] = []
    for delta in deltas:
        applied = apply_delta(document, delta)
        document = applied.document
        changes.append(applied)
    return document, changes


def _index_at_start(document: Document, start: int) -> int:
    i = document.index_at(start)
    if i < 0:
        raise MaintenanceError(
            f"no node with start label {start} in document {document.name!r}"
        )
    return i


def _subtree_document(rows: Sequence[tuple[str, int]]) -> Document:
    try:
        return document_from_tuples(rows, name="inserted-subtree")
    except MaintenanceError:
        raise
    except ReproError as exc:
        raise MaintenanceError(f"invalid subtree rows: {exc}") from exc


def _apply_insert(document: Document, delta: InsertSubtree) -> AppliedDelta:
    start, end, level, parent, tag_id, tags = document.columns
    p = _index_at_start(document, delta.parent_start)
    children = document.child_indexes(p)
    if delta.position > len(children):
        raise MaintenanceError(
            f"insert position {delta.position} exceeds the {len(children)}"
            f" children of node @{start[p]}"
        )
    subtree = _subtree_document(delta.rows).columns
    if delta.position == len(children):
        cut = end[p]
        at = document.subtree_end(p)
    else:
        at = children[delta.position]
        cut = start[at]
    count = len(subtree.start)
    width = 2 * count
    depth = level[p] + 1
    ids = {tag: i for i, tag in enumerate(tags)}
    remap = [ids.setdefault(tag, len(ids)) for tag in subtree.tags]

    grafted_start = array("i", [cut + s for s in subtree.start])
    grafted_end = array("i", [cut + e for e in subtree.end])
    grafted_level = array("i", [depth + lv for lv in subtree.level])
    grafted_tag = array("i", [remap[t] for t in subtree.tag_id])
    new = Columns(
        start[:at] + grafted_start
        + array("i", [s + width for s in start[at:]]),
        # Prefix nodes all start before the cut; only still-open regions
        # (ancestors and earlier-closing siblings of ancestors) end after it.
        array("i", [e + width if e >= cut else e for e in end[:at]])
        + grafted_end + array("i", [e + width for e in end[at:]]),
        level[:at] + grafted_level + level[at:],
        parent[:at]
        + array("i", [p if q < 0 else at + q for q in subtree.parent])
        + array("i", [q + count if q >= at else q for q in parent[at:]]),
        tag_id[:at] + grafted_tag + tag_id[at:],
        tuple(ids),
    )
    inserted = tuple(zip(
        [subtree.tags[t] for t in subtree.tag_id],
        grafted_start, grafted_end, grafted_level,
    ))
    return AppliedDelta(
        document=Document.from_columns(new, name=document.name),
        kind=delta.kind,
        touched_tags=frozenset(subtree.tags),
        shift_start=cut,
        shift_amount=width,
        inserted=inserted,
    )


def _apply_delete(document: Document, delta: DeleteSubtree) -> AppliedDelta:
    start, end, level, parent, tag_id, tags = document.columns
    first = _index_at_start(document, delta.root_start)
    if parent[first] < 0:
        raise MaintenanceError("cannot delete the document root")
    last = document.subtree_end(first)
    count = last - first
    a, b = start[first], end[first]
    width = b - a + 1

    new = Columns(
        start[:first] + array("i", [s - width for s in start[last:]]),
        # Survivors never end inside [a, b]: those labels all belong to
        # the deleted subtree.
        array("i", [e - width if e > b else e for e in end[:first]])
        + array("i", [e - width for e in end[last:]]),
        level[:first] + level[last:],
        parent[:first]
        + array("i", [q - count if q >= last else q for q in parent[last:]]),
        tag_id[:first] + tag_id[last:],
        tags,
    )
    return AppliedDelta(
        document=Document.from_columns(new, name=document.name),
        kind=delta.kind,
        touched_tags=frozenset(tags[t] for t in set(tag_id[first:last])),
        shift_start=a,
        shift_amount=-width,
        deleted_range=(a, b),
    )


def _apply_rename(document: Document, delta: RenameTag) -> AppliedDelta:
    columns = document.columns
    target = _index_at_start(document, delta.node_start)
    old_tag = columns.tags[columns.tag_id[target]]
    touched = (
        frozenset() if old_tag == delta.new_tag
        else frozenset((old_tag, delta.new_tag))
    )
    ids = {tag: i for i, tag in enumerate(columns.tags)}
    tag_id = columns.tag_id[:]
    tag_id[target] = ids.setdefault(delta.new_tag, len(ids))
    # Labels do not move: the label columns are shared with the input.
    new = columns._replace(tag_id=tag_id, tags=tuple(ids))
    return AppliedDelta(
        document=Document.from_columns(new, name=document.name),
        kind=delta.kind,
        touched_tags=touched,
        shift_start=0,
        shift_amount=0,
        renamed=(columns.start[target], old_tag, delta.new_tag),
    )
