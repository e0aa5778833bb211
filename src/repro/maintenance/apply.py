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
slices of the input plus shifted copies of the moved runs, and its
per-tag index spliced the same way; the input document is never mutated,
and the new one neither refers to it nor re-validates the rows it did
not touch (a valid parent plus a builder-made subtree is valid by
construction) — and an :class:`AppliedDelta` record
carrying the shift map and the touched element types (all
:mod:`repro.maintenance.repair` needs to classify a view and shift it
without re-matching) plus the inserted / deleted label material.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
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


def _spliced_index(
    document: Document,
    tags: tuple[str, ...],
    at: int,
    stop: int,
    grafted: dict[str, array],
) -> dict[str, array]:
    """``document``'s per-tag index after its rows ``[at, stop)`` are
    replaced by new rows: ``grafted`` maps a tag to the new rows' indexes
    (already in the new numbering), and every row from ``stop`` on moves
    by the difference.  Per tag one bisect and a bulk add over the tail;
    an array nothing happens to is shared, not copied."""
    moved = sum(map(len, grafted.values())) - (stop - at)
    by_tag: dict[str, array] = {}
    for tag in tags:
        rows = document.tag_indexes(tag)
        lo = bisect_left(rows, at)
        hi = bisect_left(rows, stop, lo)
        new = grafted.get(tag)
        if lo == hi and new is None and (not moved or lo == len(rows)):
            if rows:
                by_tag[tag] = rows
            continue
        spliced = rows[:lo]
        if new is not None:
            spliced += new
        spliced += (
            array("i", [i + moved for i in rows[hi:]]) if moved
            else rows[hi:]
        )
        if spliced:
            by_tag[tag] = spliced
    return by_tag


def _open_ends(
    end: array, parent: array, stop: int, innermost: int, amount: int
) -> array:
    """``end[:stop]`` with ``amount`` added to the end of ``innermost``
    and of each of its ancestors.  Every row before the cut starts before
    it, so the rows whose regions are still open there are exactly those:
    the parent of an insert (or the parent of a deleted subtree) and
    their ancestors.  Every other head row ends before the cut."""
    head = end[:stop]
    while innermost >= 0:
        head[innermost] += amount
        innermost = parent[innermost]
    return head


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
    grafting = _subtree_document(delta.rows)
    subtree = grafting.columns
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
        _open_ends(end, parent, at, p, width)
        + grafted_end + array("i", [e + width for e in end[at:]]),
        level[:at] + grafted_level + level[at:],
        parent[:at]
        + array("i", [p if q < 0 else at + q for q in subtree.parent])
        + array("i", [q + count if q >= at else q for q in parent[at:]]),
        tag_id[:at] + grafted_tag + tag_id[at:],
        tuple(ids),
    )
    offset = at.__add__
    by_tag = _spliced_index(document, new.tags, at, at, {
        tag: array("i", map(offset, grafting.tag_indexes(tag)))
        for tag in subtree.tags
    })
    inserted = tuple(zip(
        [subtree.tags[t] for t in subtree.tag_id],
        grafted_start, grafted_end, grafted_level,
    ))
    return AppliedDelta(
        document=Document._trusted(new, by_tag, document.name),
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
        _open_ends(end, parent, first, parent[first], -width)
        + array("i", [e - width for e in end[last:]]),
        level[:first] + level[last:],
        parent[:first]
        + array("i", [q - count if q >= last else q for q in parent[last:]]),
        tag_id[:first] + tag_id[last:],
        tags,
    )
    by_tag = _spliced_index(document, tags, first, last, {})
    return AppliedDelta(
        document=Document._trusted(new, by_tag, document.name),
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
    by_tag = _spliced_index(
        document, new.tags, target, target + 1,
        {delta.new_tag: array("i", [target])},
    )
    return AppliedDelta(
        document=Document._trusted(new, by_tag, document.name),
        kind=delta.kind,
        touched_tags=touched,
        shift_start=0,
        shift_amount=0,
        renamed=(columns.start[target], old_tag, delta.new_tag),
    )
