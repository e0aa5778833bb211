"""Maintenance commits: WAL, per-view repair, catalog install, recovery.

:func:`apply_updates` is the in-memory commit primitive: validate and
apply the deltas to the document, log them (when a WAL is attached),
repair or rebuild every catalog view against the new document, then
swap the state in atomically via
:meth:`~repro.storage.catalog.ViewCatalog.install_maintained` — which
bumps ``version`` and ``maintenance_epoch`` so planners, result caches,
snapshots and worker attachments all invalidate.

:func:`update_store` / :func:`recover_store` are the durable variants
over a ``save_catalog`` store directory.  Ordering is WAL-first (the log
record is the first durable write the store depends on: repair only
appends pages that no manifest references yet)::

    derive the new document         (in memory, from its parent's
                                     columns; rejects bad deltas)
    repair views -> fresh pages     (old pages never patched; a
                                     refused repair logs nothing)
    append + fsync wal.jsonl        (logical intent, replayable)
    write + fsync document.xml.tmp
    link outgoing generation        (hard links into generations/)
    replace document.xml, manifest  (atomic os.replace; bumps
                                     store_version, records wal_lsn)

A crash at any point leaves either the old store (tail replays on
recovery) or the new one (tail already marked applied) — never a mix.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import MaintenanceError
from repro.maintenance.apply import AppliedDelta, apply_deltas
from repro.maintenance.deltas import Delta
from repro.maintenance.repair import (
    RepairAction,
    RepairDecision,
    classify,
    repair_view,
)
from repro.maintenance.wal import WAL_FILENAME, UpdateLog
from repro.storage.catalog import ViewCatalog
from repro.xmltree.document import Document


@dataclass(frozen=True)
class ViewMaintenance:
    """What one commit did to one view."""

    view: str
    scheme: str
    action: str
    reason: str = ""


@dataclass
class MaintenanceReport:
    """Outcome of one maintenance commit."""

    deltas: int = 0
    nodes_inserted: int = 0
    nodes_deleted: int = 0
    renames: int = 0
    views: list[ViewMaintenance] = field(default_factory=list)

    def action_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.views:
            counts[row.action] = counts.get(row.action, 0) + 1
        return counts

    def as_dict(self) -> dict[str, object]:
        return {
            "deltas": self.deltas,
            "nodes_inserted": self.nodes_inserted,
            "nodes_deleted": self.nodes_deleted,
            "renames": self.renames,
            "actions": self.action_counts(),
            "views": [
                {
                    "view": row.view,
                    "scheme": row.scheme,
                    "action": row.action,
                    "reason": row.reason,
                }
                for row in self.views
            ],
        }


def repair_catalog(
    catalog: ViewCatalog,
    document: Document,
    changes: Sequence[AppliedDelta],
    force_rebuild: bool = False,
) -> tuple[dict, list[ViewMaintenance]]:
    """Stage two of a commit: classify and repair every catalog view.

    ``document`` / ``changes`` come from :func:`apply_deltas`; the
    catalog itself is only read, so callers decide when (or whether) to
    :meth:`~repro.storage.catalog.ViewCatalog.install_maintained` the
    returned view map.  Exposed separately so the maintenance benchmark
    can time view repair against per-view rematerialization without the
    document-update cost both strategies share.
    """
    new_views: dict = {}
    rows: list[ViewMaintenance] = []
    for (name, scheme), info in catalog.entries():
        decision = classify(info, changes)
        if force_rebuild and decision.action in (
            RepairAction.NOOP, RepairAction.SHIFT,
        ) and not info.derived:
            decision = RepairDecision(
                RepairAction.REBUILD, reason="forced rebuild"
            )
        repaired = repair_view(
            info, decision, document, catalog.pager,
            catalog.partial_distance,
        )
        rows.append(ViewMaintenance(
            view=name,
            scheme=scheme.value,
            action=decision.action.value,
            reason=decision.reason,
        ))
        if repaired is not None:
            new_views[(name, scheme)] = repaired
    return new_views, rows


def apply_updates(
    catalog: ViewCatalog,
    deltas: Sequence[Delta],
    wal: UpdateLog | None = None,
    force_rebuild: bool = False,
) -> MaintenanceReport:
    """Commit ``deltas`` against ``catalog`` (document + every view).

    Args:
        catalog: the live catalog to maintain.
        deltas: updates, applied in order; an empty sequence is a no-op
            commit (no version bump, nothing logged).
        wal: update log to append to (after validation and view
            repair, before the catalog installs anything) — pass the
            store's log for durable commits, None for in-memory catalogs
            or replay-of-already-logged work.
        force_rebuild: rematerialize every (non-derived) view from the
            new document instead of repairing — the naive baseline the
            maintenance benchmark and differential tests compare against.

    Returns:
        A :class:`MaintenanceReport`; ``report.deltas == 0`` means the
        commit was empty and no invalidation happened.
    """
    deltas = list(deltas)
    report = MaintenanceReport()
    if not deltas:
        return report
    document, changes = apply_deltas(catalog.document, deltas)
    report.deltas = len(changes)
    for change in changes:
        if change.kind == "insert-subtree":
            report.nodes_inserted += len(change.inserted)
        elif change.kind == "delete-subtree":
            a, b = change.deleted_range
            report.nodes_deleted += (b - a + 1) // 2
        else:
            report.renames += 1

    new_views, rows = repair_catalog(
        catalog, document, changes, force_rebuild=force_rebuild
    )
    # Logged once every view is repaired: a repair that refuses the
    # commit (a damaged page it would re-pack) leaves no pending record
    # for the next open to replay into the same refusal.  The repairs
    # only appended copy-on-write pages no manifest references yet.
    if wal is not None:
        wal.append(deltas)
    report.views.extend(rows)
    catalog.install_maintained(document, new_views, changes)
    return report


def update_store(
    directory: str | os.PathLike[str],
    deltas: Sequence[Delta],
    pool_capacity: int = 64,
    force_rebuild: bool = False,
) -> MaintenanceReport:
    """Durably apply ``deltas`` to a ``save_catalog`` store directory.

    Attaches the catalog, runs a WAL-first :func:`apply_updates`, then
    commits the new document/manifest in place (``store_version`` bump).
    Pending WAL records from an earlier crash are replayed first.
    """
    from repro.storage.persistence import commit_store, load_catalog

    recover_store(directory, pool_capacity=pool_capacity)
    source = pathlib.Path(directory)
    log = UpdateLog(source / WAL_FILENAME)
    catalog = load_catalog(source, pool_capacity=pool_capacity)
    try:
        report = apply_updates(
            catalog, deltas, wal=log, force_rebuild=force_rebuild
        )
        if report.deltas:
            commit_store(catalog, source, wal_lsn=log.tip())
    finally:
        catalog.close()
    return report


def recover_store(
    directory: str | os.PathLike[str], pool_capacity: int = 64
) -> int:
    """Replay WAL records the store's pages do not yet reflect.

    Returns the number of records replayed (0 when the store is current
    or has no log).  Only explicit openers call this — worker processes
    attach read-only-by-convention and must never race recovery writes.
    """
    from repro.storage.persistence import (
        commit_store,
        load_catalog,
        read_store_version,
    )

    source = pathlib.Path(directory)
    log = UpdateLog(source / WAL_FILENAME)
    if not log.exists():
        return 0
    __, applied_lsn = read_store_version(source)
    pending = log.read(after=applied_lsn)
    if not pending:
        return 0
    if applied_lsn and pending[0][0] != applied_lsn + 1:
        raise MaintenanceError(
            f"update log for {source} starts at LSN {pending[0][0]},"
            f" store reflects {applied_lsn}: cannot recover"
        )
    catalog = load_catalog(source, pool_capacity=pool_capacity)
    try:
        # Already logged: replay without re-appending.
        apply_updates(catalog, [delta for __, delta in pending], wal=None)
        commit_store(catalog, source, wal_lsn=log.tip())
    finally:
        catalog.close()
    return len(pending)
