"""Per-view repair: how a materialized view absorbs a delta sequence.

The decision rule (DESIGN.md §11).  For one view and one applied delta:

* when the view pattern mentions **none** of the delta's touched element
  types, the view's solution-node *identity* sets are unchanged
  (solution statuses depend only on structural relations among view-tag
  nodes, which inserting or deleting a tag-disjoint subtree preserves),
  so the repair is a pure label **SHIFT** (or **NOOP** for renames,
  which move no labels);
* otherwise the delta may create or destroy embeddings arbitrarily far
  from the touched region — the view is structurally invalidated and is
  **REBUILD**-materialized from the new document (derived result views
  cannot be rebuilt from the pattern; they are **DROP**-ped instead).
  A one-node view needs nothing cheaper: its solution list is the
  derived document's tag index, which the rebuild reads without a
  matching pass.

Repairs are copy-on-write: repaired lists go to freshly allocated pages
and the old pages are never patched, so a crash before the manifest
commit leaves the on-disk store fully consistent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.errors import MaintenanceError
from repro.maintenance.apply import AppliedDelta
from repro.storage.catalog import ViewInfo, materialize
from repro.storage.pager import Pager
from repro.tpq.pattern import Pattern
from repro.xmltree.document import Document


class RepairAction(enum.Enum):
    NOOP = "noop"
    SHIFT = "shift"
    REBUILD = "rebuild"
    DROP = "drop"


@dataclass(frozen=True)
class RepairDecision:
    """How one view absorbs one commit's delta sequence."""

    action: RepairAction
    #: The applied deltas whose label shifts a SHIFT repair replays, in
    #: commit order.  Empty for NOOP / REBUILD / DROP.
    ops: tuple[AppliedDelta, ...] = ()
    reason: str = ""


def _delta_embeds(pattern: Pattern, touched_tags: frozenset[str]) -> bool:
    """True when ``pattern`` mentions some touched element type (a
    one-node pattern embeds into a view iff the view has its tag)."""
    return any(map(pattern.has_tag, touched_tags))


def classify(
    info: ViewInfo, changes: Sequence[AppliedDelta]
) -> RepairDecision:
    """Pick the cheapest correct repair for ``info`` under ``changes``."""
    ops: list[AppliedDelta] = []
    for change in changes:
        if not _delta_embeds(info.pattern, change.touched_tags):
            # Tag-disjoint: solution sets unchanged; keep the delta only
            # for its label shift (renames shift nothing at all).
            if change.shift_amount:
                ops.append(change)
            continue
        touched = f"{change.kind} touches {sorted(change.touched_tags)}"
        if info.derived:
            return RepairDecision(
                RepairAction.DROP,
                reason=f"{touched}; derived result views cannot be re-derived",
            )
        return RepairDecision(
            RepairAction.REBUILD, reason=f"{touched} inside the view pattern"
        )
    if not ops:
        return RepairDecision(RepairAction.NOOP)
    return RepairDecision(RepairAction.SHIFT, ops=tuple(ops))


def repair_view(
    info: ViewInfo,
    decision: RepairDecision,
    document: Document,
    pager: Pager,
    partial_distance: int,
) -> ViewInfo | None:
    """Produce the post-commit catalog row for one view.

    Returns ``info`` unchanged for NOOP, a fresh row for SHIFT / REBUILD,
    and None for DROP.
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
    return _shift_view(info, decision.ops)


def _shift_view(info: ViewInfo, ops: Sequence[AppliedDelta]) -> ViewInfo:
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
