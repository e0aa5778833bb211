"""Per-view repair: how a materialized view absorbs a delta sequence.

The decision rule (DESIGN.md §11).  For one view and one applied delta:

* the delta's touched element types are probed against the view pattern
  with the Section II containment machinery (a single-tag pattern is a
  subpattern of the view iff the view mentions the tag) — when **no**
  probe embeds, the view's solution-node *identity* sets are unchanged
  (solution statuses depend only on structural relations among view-tag
  nodes, which inserting or deleting a tag-disjoint subtree preserves),
  so the repair is a pure label **SHIFT** (or **NOOP** for renames,
  which move no labels);
* when a probe embeds and the view is a **single-node** pattern, its
  solution list is exactly the tag's node list, so the repair is a
  **SPLICE**: drop deleted entries, shift survivors, merge inserted
  nodes, then recompute pointers with the standard builder;
* otherwise the delta may create or destroy embeddings arbitrarily far
  from the touched region — the view is structurally invalidated and is
  **REBUILD**-materialized from the new document (derived result views
  cannot be rebuilt from the pattern; they are **DROP**-ped instead).

Repairs are copy-on-write: repaired lists go to freshly allocated pages
and the old pages are never patched, so a crash before the manifest
commit leaves the on-disk store fully consistent.  Entry decoding runs
through the lists' ordinary ``scan()`` path, so the buffer-pool
``touch`` accounting mirror stays engaged even here (counters are reset
before any measured evaluation regardless).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.errors import MaintenanceError
from repro.maintenance.apply import AppliedDelta
from repro.storage.catalog import Scheme, ViewInfo, materialize
from repro.storage.element import ElementView
from repro.storage.linked import LinkedElementView
from repro.storage.pager import Pager
from repro.storage.records import ElementEntry
from repro.storage.tuples import TupleView
from repro.tpq.containment import is_subpattern
from repro.tpq.pattern import Pattern, PatternNode
from repro.xmltree.document import Document


class RepairAction(enum.Enum):
    NOOP = "noop"
    SHIFT = "shift"
    SPLICE = "splice"
    REBUILD = "rebuild"
    DROP = "drop"


@dataclass(frozen=True)
class RepairDecision:
    """How one view absorbs one commit's delta sequence."""

    action: RepairAction
    #: The applied deltas the repair must process, in commit order
    #: (label shifts and, for SPLICE, membership edits).  Empty for
    #: NOOP / REBUILD / DROP.
    ops: tuple[AppliedDelta, ...] = ()
    reason: str = ""


def _delta_embeds(pattern: Pattern, touched_tags: frozenset[str]) -> bool:
    """True when some touched element type embeds into ``pattern``.

    Expressed through the containment machinery (a one-node probe per
    touched tag) so richer delta patterns keep working if the update
    vocabulary ever grows beyond subtree granularity.
    """
    return any(
        is_subpattern(Pattern(PatternNode(tag)), pattern)
        for tag in touched_tags
    )


def classify(
    info: ViewInfo, changes: Sequence[AppliedDelta]
) -> RepairDecision:
    """Pick the cheapest correct repair for ``info`` under ``changes``."""
    ops: list[AppliedDelta] = []
    needs_splice = False
    single_node = len(info.pattern) == 1
    for change in changes:
        if not _delta_embeds(info.pattern, change.touched_tags):
            # Tag-disjoint: solution sets unchanged; keep the delta only
            # for its label shift (renames shift nothing at all).
            if change.shift_amount:
                ops.append(change)
            continue
        if info.derived:
            return RepairDecision(
                RepairAction.DROP,
                reason=(
                    f"{change.kind} touches {sorted(change.touched_tags)};"
                    " derived result views cannot be re-derived"
                ),
            )
        if single_node and change.kind != "rename-tag":
            ops.append(change)
            needs_splice = True
            continue
        return RepairDecision(
            RepairAction.REBUILD,
            reason=(
                f"{change.kind} touches {sorted(change.touched_tags)}"
                " inside the view pattern"
            ),
        )
    if not ops:
        return RepairDecision(RepairAction.NOOP)
    if needs_splice:
        return RepairDecision(RepairAction.SPLICE, ops=tuple(ops))
    return RepairDecision(RepairAction.SHIFT, ops=tuple(ops))


def repair_view(
    info: ViewInfo,
    decision: RepairDecision,
    document: Document,
    pager: Pager,
    partial_distance: int,
) -> ViewInfo | None:
    """Produce the post-commit catalog row for one view.

    Returns ``info`` unchanged for NOOP, a fresh row for SHIFT / SPLICE /
    REBUILD, and None for DROP.
    """
    if decision.action is RepairAction.NOOP:
        return info
    if decision.action is RepairAction.DROP:
        return None
    if decision.action is RepairAction.REBUILD:
        if info.derived:
            raise MaintenanceError(
                f"derived view {info.pattern.to_xpath()!r} cannot be rebuilt"
            )
        view = materialize(
            document, info.pattern, info.scheme, pager=pager,
            partial_distance=partial_distance,
        )
        return ViewInfo(info.pattern, info.scheme, view)
    if decision.action is RepairAction.SHIFT:
        return _shift_view(info, decision.ops, pager)
    return _splice_view(info, decision.ops, pager, partial_distance)


def _shift_view(
    info: ViewInfo, ops: Sequence[AppliedDelta], pager: Pager
) -> ViewInfo:
    """Relabel every entry; list membership, order and pointers survive.

    The shift map is strictly monotone on surviving labels, so document
    order, containment among view nodes, entry indexes — and therefore
    every stored pointer and every LE_p materialization decision — are
    all preserved verbatim.  ``view.relabeled`` → ``list.shifted`` derives
    each clone's label columns from its parent's (a bisect and a bulk add
    per op) and relabels the pages in bulk; no record is decoded, which
    is what makes a SHIFT repair asymptotically cheaper than
    rematerializing the view.
    """
    shift_ops = tuple((op.shift_start, op.shift_amount) for op in ops)
    return ViewInfo(
        info.pattern, info.scheme, info.view.relabeled(shift_ops),
        derived=info.derived,
    )


def _splice_view(
    info: ViewInfo,
    ops: Sequence[AppliedDelta],
    pager: Pager,
    partial_distance: int,
) -> ViewInfo:
    """Membership repair for a single-node view.

    A one-node pattern's solution list is the full node list of its tag,
    so the post-commit entries follow from the old entries alone: drop
    the deleted interval, shift survivors, merge the inserted tag nodes
    (already labelled in the post-delta space).  Pointers are then
    recomputed by the standard builders — for one-node patterns they
    depend only on the entry labels, never on the document.
    """
    tag = info.pattern.root.tag
    elements = _scan_elements(info)
    for op in ops:
        if op.deleted_range is not None:
            a, b = op.deleted_range
            elements = [e for e in elements if not a <= e.start <= b]
        if op.shift_amount:
            elements = [
                ElementEntry(op.shift(e.start), op.shift(e.end), e.level)
                for e in elements
            ]
        if op.inserted:
            grafted = [
                ElementEntry(start, end, level)
                for ins_tag, start, end, level in op.inserted
                if ins_tag == tag
            ]
            if grafted:
                elements = sorted(
                    elements + grafted, key=lambda e: e.start
                )
    scheme = info.scheme
    if scheme is Scheme.TUPLE:
        repaired: object = TupleView(
            info.pattern, pager, [(element,) for element in elements]
        )
    elif scheme is Scheme.ELEMENT:
        repaired = ElementView(info.pattern, pager, {tag: elements})
    else:
        repaired = LinkedElementView(
            info.pattern, pager, {tag: elements},
            partial=(scheme is Scheme.LINKED_PARTIAL),
            partial_distance=partial_distance,
        )
    return ViewInfo(info.pattern, scheme, repaired)


def _scan_elements(info: ViewInfo) -> list[ElementEntry]:
    """Current entries of a single-node view as plain element entries."""
    view = info.view
    if isinstance(view, TupleView):
        return [row[0] for row in view.tuples.scan()]
    tag = info.pattern.root.tag
    stored = view.lists[tag]
    if isinstance(view, ElementView):
        return list(stored.scan())
    return [
        ElementEntry(entry.start, entry.end, entry.level)
        for entry in stored.scan()
    ]
