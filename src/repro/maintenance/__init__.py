"""Incremental maintenance of materialized views.

The paper evaluates ViewJoin over static views; this package keeps a
:class:`~repro.storage.catalog.ViewCatalog` correct while the base
document changes, without paying full rematerialization on every write:

* :mod:`repro.maintenance.deltas` — the update vocabulary (insert-subtree,
  delete-subtree, rename-tag) with a JSON wire form;
* :mod:`repro.maintenance.apply` — applies a delta to an immutable
  :class:`~repro.xmltree.document.Document`, re-labelling the affected
  region and recording the label-shift map the view repairs need;
* :mod:`repro.maintenance.wal` — the replayable durable update log kept
  alongside ``save_catalog`` output;
* :mod:`repro.maintenance.repair` — per-view repair: NOOP / SHIFT when
  the delta touches no tag of the view, REBUILD (or DROP, for derived
  result views) when it does;
* :mod:`repro.maintenance.engine` — the commit orchestration
  (:func:`apply_updates`), store commit/recovery and the report type.

DESIGN.md §11 documents the architecture and the repair-vs-rebuild rule.
"""

from repro.maintenance.apply import AppliedDelta, apply_delta, apply_deltas
from repro.maintenance.deltas import (
    Delta,
    DeleteSubtree,
    InsertSubtree,
    RenameTag,
    delta_from_dict,
    delta_to_dict,
)
from repro.maintenance.engine import (
    MaintenanceReport,
    ViewMaintenance,
    apply_updates,
    recover_store,
    repair_catalog,
    update_store,
)
from repro.maintenance.repair import RepairAction, RepairDecision, classify
from repro.maintenance.wal import WAL_FILENAME, UpdateLog

__all__ = [
    "AppliedDelta",
    "Delta",
    "DeleteSubtree",
    "InsertSubtree",
    "MaintenanceReport",
    "RenameTag",
    "RepairAction",
    "RepairDecision",
    "UpdateLog",
    "ViewMaintenance",
    "WAL_FILENAME",
    "apply_delta",
    "apply_deltas",
    "apply_updates",
    "classify",
    "delta_from_dict",
    "delta_to_dict",
    "recover_store",
    "repair_catalog",
    "update_store",
]
