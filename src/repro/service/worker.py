"""Process-pool worker entry point.

Kept in its own module so it stays importable under both ``fork`` and
``spawn`` start methods: the executor pickles only the function
reference plus plain-data jobs, never a catalog or a service.  Each
worker task attaches the persisted store with :func:`load_catalog` —
page bytes are shared through the file and decoded lazily via the
worker's own buffer pool, so nothing heavyweight ever crosses the
process boundary in either direction.

MVCC attachment (DESIGN.md §16): the per-process memo is keyed by
``(store path, generation)``.  The parent pins the generation its batch
must be answered from and ships it with every stripe, so a maintenance
commit landing a new generation mid-batch cannot move a worker off its
snapshot — the pinned generation's manifest stays loadable from the
store's ``generations/`` archive, and later stripes at the new
generation simply attach under a fresh memo key, with no stop-the-world
reattach.  Stores without a generation archive (the service's temp
snapshot of an in-memory catalog) are rewritten in place, so attaching
one drops every other memo entry for that path.

Failure semantics: a job that trips a checksum (``StoreCorrupt``) turns
into a :class:`~repro.service.jobs.JobFailure` in the returned list, so
one corrupt view never takes down its stripe-mates; a job killed by an
injected ``worker`` fault exits the process (the parent sees
``BrokenProcessPool`` and resubmits the unfinished jobs with capped
retries).  The parent ships its installed :class:`FaultPlan` along with
the stripe, salted by the attempt number, so chaos runs stay
deterministic across respawned workers.
"""

from __future__ import annotations

import os
import pathlib
from typing import Sequence

from repro.errors import StorageError, StoreCorrupt
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.service.jobs import EvalJob, JobFailure, JobResult, run_job
from repro.storage.catalog import ViewCatalog
from repro.storage.persistence import load_catalog, read_store_version

#: Per-process store attachments: ``(path, generation)`` -> (parent
#: catalog version at attach time, attached catalog).  A service keeps
#: its worker pool alive across batches; re-parsing the store's document
#: XML on every batch would dominate small batches, so each worker
#: attaches a generation once and reuses the catalog for every stripe
#: pinned to it.  Generations are immutable once published, so a memo
#: hit can never serve a different store state than a fresh attach —
#: the parent version is kept only to catch the same *path* being
#: re-saved as a brand-new store (tmp-dir reuse).
_ATTACHED: dict[tuple[str, int], tuple[int | None, ViewCatalog]] = {}

#: Distinct generations a worker keeps attached at once; the oldest
#: entries are closed beyond this (suspended readers page slowly while
#: commits land, so a small window covers the live set).
_MAX_ATTACHED = 8


def _run_one(
    catalog: ViewCatalog, job: EvalJob
) -> JobResult | JobFailure:
    state = faults.STATE
    if state is not None:
        state.worker_job(job.index)  # may kill or stall this process
    try:
        return run_job(catalog, job, expect_warm=True)
    except StoreCorrupt as exc:
        return JobFailure.from_corrupt(exc, job)


def _evict_path(path: str, keep: int | None = None) -> None:
    """Close every memoized attachment of ``path`` except ``keep``."""
    doomed = [
        key for key in _ATTACHED
        if key[0] == path and key[1] != keep
    ]
    for key in doomed:
        __, catalog = _ATTACHED.pop(key)
        catalog.close()


def _evict_overflow() -> None:
    while len(_ATTACHED) > _MAX_ATTACHED:
        key = next(iter(_ATTACHED))  # oldest insertion
        __, catalog = _ATTACHED.pop(key)
        catalog.close()


def _attach(
    path: str,
    generation: int,
    parent_version: int | None,
    pool_capacity: int,
) -> ViewCatalog:
    key = (path, generation)
    memo = _ATTACHED.get(key)
    if memo is not None:
        attached_parent, catalog = memo
        if attached_parent == parent_version:
            return catalog
        # Same path, same generation number, different parent catalog:
        # the path was re-saved as a new store (generation numbering
        # restarted) — everything memoized under it is stale.
        _evict_path(path)
    if not (pathlib.Path(path) / "generations").is_dir():
        # No archive: this store is rewritten in place on every save,
        # so any other attached generation of it points at dead pages.
        _evict_path(path)
    catalog = load_catalog(
        path, pool_capacity=pool_capacity, generation=generation
    )
    _ATTACHED[key] = (parent_version, catalog)
    _evict_overflow()
    return catalog


def run_worker_jobs(
    store_dir: str | os.PathLike,
    jobs: Sequence[EvalJob],
    pool_capacity: int = 64,
    store_version: int | None = None,
    fault_plan: FaultPlan | None = None,
    fault_salt: int = 0,
    generation: int | None = None,
) -> list[JobResult | JobFailure]:
    """Attach the store and evaluate ``jobs`` in order.

    ``pool_capacity`` must mirror the parent's buffer-pool capacity:
    physical-read counts depend on pool size, and the deterministic-merge
    contract needs workers to observe the same residency behaviour a
    sequential run would.  (Jobs themselves always run cold — the memoized
    attachment keeps decoded pages and packed columns, but
    :func:`~repro.service.jobs.run_job` drops the buffer pool per repeat,
    so reuse never changes any counter.)

    ``generation`` pins the whole stripe to one published store
    generation (a job's own ``generation`` field overrides it per job);
    ``None`` resolves the store's current generation once, up front.
    ``store_version`` enables the per-process attachment memo: pass the
    catalog version the snapshot was saved at, and the worker re-attaches
    only when it changes.  ``None`` keeps the one-shot behaviour (attach,
    evaluate, close).

    Every view a job references must already exist in the store
    (:func:`repro.service.jobs.run_job` enforces ``expect_warm``): a
    worker must never materialize, because its pager is attached
    read-write to a file shared with sibling workers.
    """
    if fault_plan is not None:
        faults.install(fault_plan, salt=fault_salt)
    path = os.fspath(store_dir)
    if store_version is None and generation is None:
        try:
            catalog = load_catalog(path, pool_capacity=pool_capacity)
        except StoreCorrupt as exc:
            return [JobFailure.from_corrupt(exc, job) for job in jobs]
        try:
            return [_run_one(catalog, job) for job in jobs]
        finally:
            catalog.close()
    if generation is None:
        # One manifest read per stripe, *before* any job runs: every
        # job without its own pin answers from this one generation even
        # if a commit lands while the stripe is in flight.
        generation, __ = read_store_version(path)
    return [
        _attach_and_run(
            path,
            generation if job.generation is None else job.generation,
            store_version, pool_capacity, job,
        )
        for job in jobs
    ]


def _attach_and_run(
    path: str,
    pinned: int,
    store_version: int | None,
    pool_capacity: int,
    job: EvalJob,
) -> JobResult | JobFailure:
    """One job against its pinned generation; attach errors come back
    typed so a bad generation never takes down its stripe-mates."""
    try:
        catalog = _attach(path, pinned, store_version, pool_capacity)
    except StoreCorrupt as exc:
        # The store is unreadable at attach: the job fails typed
        # rather than hanging or crashing the pool.
        return JobFailure.from_corrupt(exc, job)
    except StorageError as exc:
        # Pinned generation reaped (or never published): typed per-job
        # failure.
        return JobFailure(
            index=job.index,
            kind="error",
            message=str(exc),
            views=job.view_names,
        )
    return _run_one(catalog, job)
