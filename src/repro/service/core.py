"""The multi-process query service.

:class:`QueryService` is the layer the ROADMAP's "heavy traffic" goal
asks for on top of the single-query engine: it owns one materialized
:class:`~repro.storage.catalog.ViewCatalog` (built in memory, or attached
from a :func:`~repro.storage.persistence.save_catalog` store), answers
queries through a plan-cached :class:`~repro.planner.Planner`, and fans
independent queries out across a :class:`~concurrent.futures.ProcessPoolExecutor`
whose workers reattach the persisted store and run the existing engine.

One read pipeline
-----------------
``evaluate``, ``evaluate_batch``, ``evaluate_parallel``,
``evaluate_quantum`` and ``resume_quantum`` are thin compositions of
stages that each exist once: **resolve** (``_resolve_read`` pins the
generation's catalog/planner pair), **lookup** (``_lookup``: refuted →
result cache), **materialize**, **execute** (``_execute`` in-process or
across the resilient pool, ``_quantum_step`` for one engine quantum)
and **settle** (``_settle``: breaker success or failure, result-cache
put, then raise, degrade from base views over the *resolved*
generation's document, or report a typed error — whichever the entry
point promises).  A batch adds one step between lookup and execute: its
queries are hash-consed into distinct eval nodes
(:mod:`repro.service.shared`), each node runs once, and its stream plus
recorded counters replay to every consumer.  Singles skip that step,
its ``SharedStats`` and the stream cache.

Determinism contract
--------------------
Every job runs **cold** (buffer pool dropped per repeat, stats reset per
run) and the per-job counters are folded in job-index order, so a batch
— in-process or across any number of workers — returns match keys and
aggregated work/I-O counters byte-identical to a loop of ``evaluate``
over the same queries (a duplicate's would-be accounting equals the
original's, so replaying it is exact).  Wall-clock fields are the only
non-deterministic outputs.

Cache layers
------------
* the planner's **plan cache** (parse → cover → :class:`Plan`, memoized
  per catalog generation; invalidated by ``register`` / ``drop`` /
  ``adopt_catalog_views``);
* an optional keyed **result cache** in the service itself
  (``result_cache_size > 0``), keyed by store generation (DESIGN.md
  §16): a maintenance commit rolls the keys instead of purging, so
  readers pinned to an older generation keep their hits; view-set
  changes within a generation still invalidate explicitly;
* the batch executor's **stream cache** (:mod:`repro.service.streams`),
  memoizing eval-node match streams across batches, keyed by
  ``(catalog epoch, node hash)`` — per generation, like the result
  cache — and cleared with it on view-set changes.

Snapshot reads (MVCC)
---------------------
A maintenance commit publishes a new store *generation* instead of
invalidating readers (DESIGN.md §16).  Suspended continuations are
stamped with the generation they started against and resume
byte-identically from a pinned pre-commit snapshot; callers can hold a
generation explicitly with :meth:`QueryService.pin_generation` and
evaluate ``as_of`` it while updates land concurrently.
:meth:`QueryService.gc_generations` reaps unpinned generation archives
under a disk budget — pinned generations are never reaped, and sessions
whose generation was reaped expire typed on resume.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

from repro.algorithms.base import KEYS, Counters, Mode
from repro.algorithms.engine import (
    Algorithm,
    combo_label,
    evaluate_quantum as engine_evaluate_quantum,
)
from repro.algorithms.preempt import QuantumBudget
from repro.caching import CacheStats, LRUCache
from repro.errors import (
    ContinuationExpired,
    QueryTimeout,
    ServiceError,
    StorageError,
    StoreCorrupt,
    WorkerLost,
)
from repro.planner import Plan, Planner
from repro.resilience import faults
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import Deadline, RetryPolicy, wait
from repro.service.jobs import (
    EvalJob,
    JobFailure,
    JobResult,
    merge_results,
    run_job,
)
from repro.service.continuation import (
    Continuation,
    decode_token,
    encode_token,
)
from repro.service.shared import (
    SharedNode,
    SharedStats,
    node_digest,
    node_key,
)
from repro.service.streams import StreamCache
from repro.service.worker import run_worker_jobs
from repro.storage.catalog import Scheme, ViewCatalog
from repro.storage.generations import GCReport, reap_generations
from repro.storage.pager import IOStats
from repro.storage.persistence import (
    load_catalog,
    read_store_version,
    save_catalog,
)
from repro.tpq.parser import parse_pattern
from repro.tpq.pattern import Pattern


@dataclass
class QueryOutcome:
    """One answered query: canonical text, match keys and accounting."""

    query: str
    combo: str
    match_keys: list[tuple[int, ...]]
    match_count: int
    counters: Counters
    io: IOStats
    elapsed_s: float
    cached: bool = False
    refuted: bool = False
    plan_views: list[str] = field(default_factory=list)
    #: True when the planned views failed and the answer was recomputed
    #: from base views over the base document (still correct — views are
    #: an optimization, never the source of truth).
    degraded: bool = False
    #: Non-empty when the query could not be answered at all:
    #: ``"<kind>: <detail>"`` with the breaker's failure taxonomy.
    error: str = ""
    #: True when this outcome was replayed from a shared eval node's
    #: stream (batch CSE or stream cache) instead of its own engine run.
    #: Counters/I-O are still the run's recorded (deterministic) values.
    shared: bool = False


@dataclass
class BatchResult:
    """Outcomes of one batch plus the deterministic counter merge."""

    outcomes: list[QueryOutcome]
    counters: Counters
    io: IOStats
    elapsed_s: float

    @property
    def match_counts(self) -> list[int]:
        return [outcome.match_count for outcome in self.outcomes]


@dataclass
class QuantumOutcome:
    """One quantum of a preemptible evaluation.

    ``page`` holds only this quantum's match keys — tuples of start
    labels, as the engine emitted them; concatenating the pages of one
    continuation chain yields exactly the uninterrupted run's matches,
    in the same (canonical) order, each exactly once.  ``counters``
    and ``match_count`` are cumulative over the chain (the final
    quantum's equal a one-shot run's); ``io`` accumulates the logical/
    physical read and page-write counts across quanta, while its
    wall-clock second fields cover this quantum only.

    ``done=False`` comes with an opaque continuation ``token`` for
    :meth:`QueryService.resume_quantum`; ``done=True`` never does.
    """

    query: str
    combo: str
    page: list[tuple[int, ...]]
    match_count: int
    counters: Counters
    io: IOStats
    elapsed_s: float
    done: bool
    token: str | None = None
    quanta: int = 1
    #: True when this quantum hit its budget and suspended.
    preempted: bool = False
    #: False when the plan's engine cannot suspend (non-ViewJoin plans
    #: answer in a single unbounded quantum).
    preemptible: bool = True
    degraded: bool = False
    refuted: bool = False
    error: str = ""
    plan_views: list[str] = field(default_factory=list)


@dataclass
class _GenerationPin:
    """One pinned pre-commit generation: a frozen catalog/planner pair.

    Taken by :meth:`QueryService.apply_updates` immediately before a
    commit whenever something still references the outgoing generation
    (a suspended continuation session or an explicit user pin).  The
    catalog is a :meth:`~repro.storage.catalog.ViewCatalog.pin_snapshot`
    alias (shared pager, copy-on-write pages), the planner a
    :meth:`~repro.planner.Planner.clone_for_snapshot` frozen at the
    pre-commit epoch pair, so cache keys derived from the pair keep
    hitting their pre-commit entries.  The pin dies when nothing
    references its generation any more, or when GC reaps the
    generation's archive out from under it.
    """

    generation: int
    catalog: ViewCatalog
    planner: Planner


class _Read(NamedTuple):
    """One read's resolved catalog/planner pair (``as_of`` as the caller
    gave it), output shape, and failure policy: ``"raise"`` the typed
    exception, ``"degrade"`` to base views, or a typed ``"error"``."""

    catalog: ViewCatalog
    planner: Planner
    mode: Mode
    emit_matches: bool
    as_of: int | None
    on_failure: str


class QueryService:
    """Plan-cached, optionally parallel query answering over one catalog.

    Args:
        catalog: an existing in-memory catalog to serve from (mutually
            exclusive with ``store_path``).
        store_path: a ``save_catalog`` store directory to attach
            read-mostly; the service owns (and closes) the loaded catalog.
        scheme / algorithm: defaults handed to the planner (which keeps
            a 128-plan cache; each plan records whether the DataGuide
            refutes its query, and refuted queries never run).
        result_cache_size: LRU size of the keyed result cache; 0 disables.
        generation_budget_bytes: disk high-water mark for archived
            store generations (DESIGN.md §16) — after every durable
            commit the service auto-reaps unpinned generation archives
            down to this budget.  ``None`` (the default) leaves GC to
            explicit :meth:`gc_generations` calls.
    """

    def __init__(
        self,
        catalog: ViewCatalog | None = None,
        *,
        store_path: str | None = None,
        scheme: Scheme | str = Scheme.LINKED_PARTIAL,
        algorithm: Algorithm | str = Algorithm.VIEWJOIN,
        result_cache_size: int = 0,
        retry_policy: RetryPolicy | None = None,
        failure_threshold: int = 3,
        verify: bool = False,
        generation_budget_bytes: int | None = None,
    ):
        if (catalog is None) == (store_path is None):
            raise ServiceError(
                "pass exactly one of `catalog` or `store_path`"
            )
        self._owns_catalog = store_path is not None
        self._store_path = str(store_path) if store_path else None
        if catalog is None:
            # Finish any update-log tail an interrupted maintenance
            # commit left behind before attaching.
            from repro.maintenance.engine import recover_store

            recover_store(store_path)
            catalog = load_catalog(store_path, verify=verify)
        self.catalog = catalog
        #: Workers must replay the parent's pool residency behaviour.
        self.pool_capacity = catalog.pager.pool.capacity
        self.planner = Planner(
            catalog,
            scheme=scheme,
            algorithm=algorithm,
            plan_cache_size=128,
        )
        if self._store_path is not None:
            self.planner.adopt_catalog_views()
        self._store_version = catalog.version
        self._wal = None  # the store's UpdateLog, made by the first commit
        self._snapshot_dir: str | None = None
        self._snapshot_version: int | None = None
        #: Disk generation of the private temp snapshot (its numbering
        #: is the *store's*, independent of the in-memory catalog's).
        self._snapshot_generation: int | None = None
        self._result_cache = LRUCache(result_cache_size)
        # The shared executor's cross-batch sub-plan streams, LRU over
        # 32 eval nodes.
        self._stream_cache = StreamCache(32)
        # MVCC state (DESIGN.md §16): pinned pre-commit snapshots by
        # generation, explicit user-pin refcounts, and GC accounting.
        self._generation_snapshots: dict[int, _GenerationPin] = {}
        self._user_pins: dict[int, int] = {}
        self._generation_budget = generation_budget_bytes
        self._generations_reaped = 0
        self._generation_cache_evictions = 0
        self._shared_stats = SharedStats()
        self._executor: ProcessPoolExecutor | None = None
        self._executor_workers = 0
        self._closed = False
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.breaker = CircuitBreaker(failure_threshold=failure_threshold)
        self._degraded_queries = 0
        self._failed_queries = 0
        # Live continuations of suspended (preemptible) queries.  The
        # session id is a monotone counter — no randomness (RL103) and
        # unguessable ids are not a goal: the token, not the sid, is the
        # capability, and sids die with the state they index.
        self._continuations: dict[str, int] = {}  # sid -> generation
        self._continuation_seq = 0
        self._continuations_issued = 0
        self._continuations_completed = 0
        self._continuations_expired = 0
        self._continuations_purged = 0
        self._quanta_served = 0
        self._job_retries = 0
        self._pool_respawns = 0
        self._deadline_expiries = 0
    @classmethod
    def open(cls, store_path, **kwargs) -> "QueryService":
        """Attach a service to a persisted view store."""
        return cls(store_path=str(store_path), **kwargs)

    # -- registration & invalidation ------------------------------------------

    def register(self, pattern: Pattern | str, name: str | None = None) -> Pattern:
        """Register (and materialize) a view; drops both cache layers."""
        pattern = self.planner.register(pattern, name=name)
        self.invalidate_results()
        return pattern

    def drop(self, name: str) -> bool:
        """Deregister and delete the view ``name``: the inverse of
        :meth:`register`.

        Three layers move together, as in :meth:`_quarantine`: the
        planner stops planning over the view (generation bump → plan
        cache), the catalog drops its rows (version bump → the next
        snapshot re-saves and pooled workers reattach), and the result
        and stream caches are emptied.  A suspended chain that planned
        over the view expires, typed, at resume's per-view check.
        Returns False, changing nothing, when no such view exists.
        """
        deregistered = self.planner.deregister(name)
        removed = self.catalog.remove_view(name)
        if deregistered or removed:
            self.invalidate_results()
        return deregistered or removed

    def adopt_catalog_views(self) -> int:
        adopted = self.planner.adopt_catalog_views()
        if adopted:
            self.invalidate_results()
        return adopted

    def invalidate_results(self) -> int:
        """Drop the result cache *and* the shared stream cache (the
        catalog changed); returns how many result entries were evicted.

        The stream cache is also epoch-keyed, so this clear is belt and
        braces: even a missed call could not serve a stale stream, but
        eager eviction reclaims the spill pages immediately."""
        self._stream_cache.clear()
        return self._result_cache.invalidate()

    # -- maintenance ----------------------------------------------------------

    def apply_updates(self, deltas, force_rebuild: bool = False):
        """Commit document updates and repair every view (incremental
        view maintenance).

        Runs :func:`repro.maintenance.engine.apply_updates` against the
        served catalog, then restores the service's end-to-end
        consistency contract:

        * store-backed services log the deltas to the store's update log
          first and commit the repaired pages/manifest in place —
          publishing a new *generation* (the outgoing manifest and
          document are archived first, so pinned readers stay
          answerable) — and pooled workers detect the rewrite and
          reattach;
        * the planner re-syncs (DataGuide derived from the commit's
          deltas, plans dropped, dropped views deregistered).  The
          result and stream caches are **not** purged: their keys carry
          the generation, so the commit rolls them — pinned readers
          keep their pre-commit hits, post-commit reads key fresh
          entries.

        If anything still references the outgoing generation (a
        suspended continuation session or a user pin), a frozen
        catalog/planner snapshot is taken *before* the commit and kept
        in ``_generation_snapshots`` so those readers finish
        byte-identically against the state they started from.

        Returns the :class:`repro.maintenance.engine.MaintenanceReport`.
        """
        from repro.maintenance.engine import apply_updates as maintain
        from repro.maintenance.wal import WAL_FILENAME, UpdateLog
        from repro.storage.persistence import commit_store
        import pathlib

        outgoing = self.catalog.generation
        pin: _GenerationPin | None = None
        if (
            outgoing not in self._generation_snapshots
            and self._generation_referenced(outgoing)
        ):
            snap_catalog = self.catalog.pin_snapshot()
            pin = _GenerationPin(
                generation=outgoing,
                catalog=snap_catalog,
                planner=self.planner.clone_for_snapshot(snap_catalog),
            )
        wal = self._wal
        if wal is None and self._store_path is not None:
            # One log object for the service's lifetime: it verifies the
            # file once and then only when its length says it changed.
            wal = self._wal = UpdateLog(
                pathlib.Path(self._store_path) / WAL_FILENAME
            )
        report = maintain(
            self.catalog, deltas, wal=wal, force_rebuild=force_rebuild
        )
        if report.deltas:
            # Only install the pin for a non-empty commit: an empty one
            # changed nothing, so the "snapshot" would just alias the
            # live state under the same generation number.
            if pin is not None:
                self._generation_snapshots[outgoing] = pin
            if self._store_path is not None:
                commit_store(
                    self.catalog, self._store_path, wal_lsn=wal.tip()
                )
                self._store_version = self.catalog.version
            self.planner.sync_catalog()
            if (
                self._store_path is not None
                and self._generation_budget is not None
            ):
                # Post-commit GC under the configured high-water mark.
                self.gc_generations()
        return report

    # -- MVCC generations (DESIGN.md §16) -------------------------------------

    @property
    def generation(self) -> int:
        """The live catalog's current store generation."""
        return self.catalog.generation

    def pin_generation(self) -> int:
        """Pin the current generation for snapshot reads; returns it.

        While pinned, :meth:`evaluate` / :meth:`evaluate_batch` /
        :meth:`evaluate_quantum` accept ``as_of=<generation>`` and
        answer byte-identically to the pre-commit state no matter how
        many commits land in between, and :meth:`gc_generations` never
        reaps the generation's archive.  Pins are refcounted; release
        with :meth:`unpin_generation`.
        """
        generation = self.catalog.generation
        self._user_pins[generation] = self._user_pins.get(generation, 0) + 1
        return generation

    def unpin_generation(self, generation: int) -> None:
        """Release one :meth:`pin_generation` hold; drops the frozen
        snapshot once nothing references the generation any more."""
        count = self._user_pins.get(generation, 0)
        if count <= 1:
            self._user_pins.pop(generation, None)
        else:
            self._user_pins[generation] = count - 1
        self._release_generation(generation)

    def gc_generations(
        self, budget_bytes: int | None = None
    ) -> GCReport:
        """Reap archived store generations down to a disk budget.

        Hard-pinned generations — the current one and every
        :meth:`pin_generation` hold — are never reaped.  Generations
        referenced only by suspended continuation sessions are
        *soft*-pinned: reaped last, and when one does die its sessions
        expire typed (:class:`ContinuationExpired`) on their next
        resume instead of answering from vanished state.  Cache entries
        of reaped generations are evicted (counted in
        ``resilience_metrics()['generation_cache_evictions']``).

        ``budget_bytes`` defaults to the service's
        ``generation_budget_bytes``; with neither set the pass reaps
        nothing and just reports the archive's state.  In-memory
        services have no archive — their snapshots are dropped eagerly
        when dereferenced, and GC is a no-op report.
        """
        budget = (
            budget_bytes if budget_bytes is not None
            else self._generation_budget
        )
        current = self.catalog.generation
        hard = {current} | {
            gen for gen, count in self._user_pins.items() if count > 0
        }
        soft = set(self._continuations.values())
        soft |= set(self._generation_snapshots)
        soft -= hard
        if self._store_path is None:
            return GCReport(
                reaped=(), kept=(), pinned=tuple(sorted(hard)),
                bytes_before=0, bytes_after=0,
                budget_bytes=int(budget) if budget is not None else 0,
            )
        report = reap_generations(
            self._store_path,
            budget if budget is not None else 1 << 62,
            pinned=hard,
            soft_pinned=soft,
        )
        reaped = set(report.reaped)
        if reaped:
            self._generations_reaped += len(reaped)
            evicted = self._result_cache.invalidate(
                lambda key: key[0] in reaped
            )
            pairs = set()
            for gen in report.reaped:
                dead = self._generation_snapshots.pop(gen, None)
                if dead is not None:
                    pairs.add((
                        dead.catalog.maintenance_epoch,
                        dead.planner.generation,
                    ))
                    dead.catalog.close()
            if pairs:
                evicted += self._stream_cache.evict(
                    lambda key: key[0] in pairs
                )
            self._generation_cache_evictions += evicted
            stale = [
                sid for sid, generation in self._continuations.items()
                if generation in reaped
            ]
            # Purged server-side (the resume that observes the loss is
            # what counts as the *expiry*, typed, at the sid miss).
            for sid in stale:
                del self._continuations[sid]
            self._continuations_purged += len(stale)
        return report

    def _generation_referenced(self, generation: int) -> bool:
        """Does anything (session or user pin) still rest on it?"""
        return bool(
            self._user_pins.get(generation)
            or generation in self._continuations.values()
        )

    def _release_generation(self, generation: int) -> None:
        """Drop the frozen snapshot once its generation is unreferenced
        (the live generation never has one to drop)."""
        if generation == self.catalog.generation:
            return
        if self._generation_referenced(generation):
            return
        pin = self._generation_snapshots.pop(generation, None)
        if pin is not None:
            # The snapshot borrowed the live pager; close() releases
            # only the snapshot's own references.
            pin.catalog.close()

    def _resolve_read(
        self,
        as_of: int | None,
        mode: Mode | str,
        emit_matches: bool,
        on_failure: str,
    ) -> _Read:
        """Pin the catalog/planner pair a read ``as_of`` runs over — the
        live pair for the current generation (or ``None``), a frozen
        snapshot for a pinned older one, a typed error for a generation
        this service does not hold — exactly once per read."""
        if as_of is None or as_of == self.catalog.generation:
            catalog, planner = self.catalog, self.planner
        else:
            pin = self._generation_snapshots.get(as_of)
            if pin is None:
                raise ServiceError(
                    f"generation {as_of} is not pinned on this service"
                    f" (current generation is {self.catalog.generation};"
                    " call pin_generation() before committing updates, or"
                    " the generation has been garbage-collected)"
                )
            catalog, planner = pin.catalog, pin.planner
        return _Read(
            catalog, planner, Mode.parse(mode), emit_matches, as_of,
            on_failure,
        )

    @property
    def plan_cache_stats(self) -> CacheStats:
        return self.planner.plan_cache_stats

    @property
    def result_cache_stats(self) -> CacheStats:
        return self._result_cache.stats

    @property
    def stream_cache_stats(self) -> CacheStats:
        return self._stream_cache.stats

    def shared_metrics(self) -> dict[str, object]:
        """Work actually executed vs replayed by the shared batch path."""
        metrics = self._shared_stats.as_dict()
        spill_io = self._stream_cache.io
        metrics["stream_cache"] = self._stream_cache.stats.as_dict()
        metrics["stream_spill_logical_reads"] = spill_io.logical_reads
        metrics["stream_spill_physical_reads"] = spill_io.physical_reads
        metrics["stream_spill_pages_written"] = spill_io.pages_written
        metrics["stream_spilled_streams"] = self._stream_cache.spilled_streams
        metrics["stream_spilled_bytes"] = self._stream_cache.spilled_bytes
        return metrics

    # -- warm-up --------------------------------------------------------------

    def warmup(self, queries: Sequence[Pattern | str]) -> int:
        """Materialize every view the given queries will need, exactly
        once per (view, scheme); returns how many materializations ran.

        After warm-up, evaluating those queries performs no
        materialization inside the timed region (enforced by
        :func:`~repro.service.jobs.run_job`).
        """
        before = self.catalog.materializations
        for query in queries:
            self._materialize_plan(self.planner.plan(query), self.catalog)
        return self.catalog.materializations - before

    def warmup_jobs(self, jobs: Sequence[EvalJob]) -> int:
        """Materialize each distinct (view, scheme) of explicit jobs once."""
        before = self.catalog.materializations
        # Insertion-ordered dict, not a set: materialization must follow
        # job order because page layout (and thus physical-read counts)
        # depends on the order views hit the store.
        seen: dict[tuple[str, str], None] = {}
        for job in jobs:
            for xpath, name in job.views:
                key = (name or xpath, job.scheme)
                if key in seen:
                    continue
                seen[key] = None
                self.catalog.add(
                    parse_pattern(xpath, name=name), job.scheme
                )
        return self.catalog.materializations - before

    @staticmethod
    def _materialize_plan(plan: Plan, catalog: ViewCatalog) -> None:
        for view in plan.all_views:
            catalog.add(view, plan.scheme)

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        query: Pattern | str,
        mode: Mode | str = Mode.MEMORY,
        emit_matches: bool = True,
        as_of: int | None = None,
    ) -> QueryOutcome:
        """Plan (cached), warm up, and evaluate one query cold.

        ``as_of`` pins the evaluation to a held store generation
        (DESIGN.md §16): the current one, or any generation kept alive
        by :meth:`pin_generation` / a suspended continuation — the
        answer is byte-identical to evaluating before the commits that
        superseded it.  Like :meth:`evaluate_batch` this in-process
        entry point has no degraded mode: store corruption raises
        :class:`StoreCorrupt`.
        """
        read = self._resolve_read(as_of, mode, emit_matches, "raise")
        return self._read_one(read, read.planner.plan(query))

    def evaluate_batch(
        self,
        queries: Sequence[Pattern | str],
        mode: Mode | str = Mode.MEMORY,
        emit_matches: bool = True,
        as_of: int | None = None,
    ) -> BatchResult:
        """Evaluate ``queries`` in-process; merge counters in input order.

        Byte-identical queries are deduped before planning, identical
        eval nodes run once, and recorded streams/counters replay to
        every consumer (:mod:`repro.service.shared`) — outcomes and
        merged totals stay byte-identical to a loop of :meth:`evaluate`
        over the same inputs, at a fraction of the executed work.
        """
        read = self._resolve_read(as_of, mode, emit_matches, "raise")
        return self._read_batch(read, queries)

    def evaluate_parallel(
        self,
        queries: Sequence[Pattern | str],
        workers: int = 2,
        mode: Mode | str = Mode.MEMORY,
        emit_matches: bool = True,
        deadline_s: float | None = None,
        degrade: bool = True,
    ) -> BatchResult:
        """Fan ``queries`` out over ``workers`` processes.

        Results and merged counters are byte-identical to
        :meth:`evaluate_batch` on the same queries; only wall-clock
        differs.  ``workers <= 1`` degenerates to the sequential path.
        The batch is first hash-consed into distinct eval nodes and only
        those become jobs (:mod:`repro.service.shared`).

        Resilience: ``deadline_s`` bounds the whole batch (expired jobs
        come back as ``error`` outcomes instead of hanging); lost
        workers are respawned and their jobs resubmitted under the
        service's :class:`RetryPolicy`; jobs that keep failing — or hit
        checksum corruption — trip the per-view circuit breaker, and
        with ``degrade=True`` their queries are transparently
        re-answered from base views over the base document
        (``degraded=True`` on the outcome, correctness preserved).
        """
        on_failure = "degrade" if degrade else "error"
        read = self._resolve_read(None, mode, emit_matches, on_failure)
        return self._read_batch(read, queries, workers, deadline_s)

    def evaluate_jobs(
        self, jobs: Sequence[EvalJob], workers: int = 0
    ) -> list[JobResult]:
        """Explicit-plan entry point (the bench harness grid): warm up
        every (view, scheme) once, then run the jobs, parallel when
        ``workers > 1``.  Results come back in job-index order."""
        jobs = list(jobs)
        self.warmup_jobs(jobs)
        return self.run_jobs(jobs, workers=workers)

    def run_jobs(
        self,
        jobs: Sequence[EvalJob],
        workers: int = 0,
        deadline_s: float | None = None,
    ) -> list[JobResult]:
        """Run already-warm jobs, in-process or across worker processes.

        Raises the first failure as its typed exception
        (:class:`QueryTimeout` / :class:`WorkerLost` /
        :class:`StoreCorrupt`) — the explicit-plan API has no degraded
        mode; use :meth:`evaluate_parallel` for that.
        """
        items = self._execute(
            list(jobs), workers, Deadline.after(deadline_s), self.catalog
        )
        for item in items:
            if isinstance(item, JobFailure):
                raise self._failure_error(item)
        return items

    def _execute(
        self,
        jobs: list[EvalJob],
        workers: int,
        deadline: Deadline,
        catalog: ViewCatalog,
    ) -> list[JobResult | JobFailure]:
        """The execute stage: run jobs in-process over ``catalog`` (the
        resolved read's; ``workers <= 1``) or across the worker pool.
        Never hangs, never raises for a single job's failure: returns
        one :class:`JobResult` or typed :class:`JobFailure` per job, in
        job-index order.  Each result is recorded exactly once (first
        success wins), and jobs run cold, so counters merged from them
        are byte-identical to a failure-free sequential pass."""
        if workers > 1 and jobs:
            try:
                return self._dispatch(jobs, workers, deadline)
            except StoreCorrupt as exc:
                # The snapshot save itself hit corruption: every
                # dispatched job fails typed.
                return [JobFailure.from_corrupt(exc, job) for job in jobs]
        items: list[JobResult | JobFailure] = []
        for job in jobs:
            if deadline.expired:
                items.append(JobFailure(
                    index=job.index, kind="timeout",
                    message="batch deadline expired before this job ran",
                ))
                continue
            try:
                items.append(run_job(catalog, job, expect_warm=True))
            except StoreCorrupt as exc:
                items.append(JobFailure.from_corrupt(exc, job))
        return items

    def _dispatch(
        self, jobs: list[EvalJob], workers: int, deadline: Deadline
    ) -> list[JobResult | JobFailure]:
        """Pool dispatch with bounded retries: lost workers are
        respawned and their unfinished jobs resubmitted; the deadline
        abandons a stalled pool instead of joining it."""
        store = self._ensure_snapshot()
        # The stripe-level MVCC pin: resolve the dispatched store's
        # current generation once, here, and hand it to every stripe so
        # pooled workers attach exactly this manifest even if a commit
        # lands while the batch is in flight.  Temp snapshots carry the
        # *store's* generation numbering, recorded at save time.
        if store == self._store_path:
            dispatch_generation: int | None = self.catalog.generation
        else:
            dispatch_generation = self._snapshot_generation
        pending: dict[int, EvalJob] = {job.index: job for job in jobs}
        settled: dict[int, JobResult | JobFailure] = {}
        for attempt, delay in enumerate(self.retry_policy.delays("run-jobs")):
            if not pending:
                break
            if attempt:
                self._job_retries += len(pending)
                wait(deadline.clamp(delay))
            if deadline.expired:
                self._mark_timeouts(pending, settled)
                break
            batch = [pending[index] for index in sorted(pending)]
            stripes = [batch[k::workers] for k in range(workers)]
            pool = self._get_executor(workers)
            futures = [
                pool.submit(
                    run_worker_jobs, store, stripe, self.pool_capacity,
                    self.catalog.version, faults.active(), attempt,
                    dispatch_generation,
                )
                for stripe in stripes
                if stripe
            ]
            done, not_done = wait_futures(
                futures, timeout=deadline.remaining()
            )
            pool_broken = False
            for future in done:
                try:
                    items = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    continue
                for item in items:
                    # A typed worker-side failure (store corruption) is
                    # as final as a result: never retried — bytes do
                    # not heal.
                    if pending.pop(item.index, None) is not None:
                        settled[item.index] = item
            if not_done:
                # Deadline hit with workers still running (e.g. stalled):
                # abandon this pool rather than joining a stuck process.
                self._deadline_expiries += 1
                for future in not_done:
                    future.cancel()
                self._discard_executor(join=False)
                self._mark_timeouts(pending, settled)
                break
            if pool_broken:
                # A worker died mid-stripe; respawn the pool and resubmit
                # whatever is still pending on the next attempt.
                self._pool_respawns += 1
                self._discard_executor(join=False)
        for index in sorted(pending):
            settled[index] = JobFailure(
                index=index,
                kind="worker-lost",
                message=(
                    f"worker died on every one of"
                    f" {self.retry_policy.max_attempts} attempt(s)"
                ),
                views=pending[index].view_names,
            )
        return [settled[index] for index in sorted(settled)]

    @staticmethod
    def _mark_timeouts(
        pending: dict[int, EvalJob],
        settled: dict[int, JobResult | JobFailure],
    ) -> None:
        for index in sorted(pending):
            settled[index] = JobFailure(
                index=index, kind="timeout",
                message="batch deadline expired before this job finished",
                views=pending[index].view_names,
            )
        pending.clear()

    @staticmethod
    def _failure_error(failure: JobFailure) -> Exception:
        detail = f"job {failure.index}: {failure.message}"
        if failure.kind == "timeout":
            return QueryTimeout(detail)
        if failure.kind == "worker-lost":
            return WorkerLost(detail)
        if failure.kind == "store-corrupt":
            return StoreCorrupt(
                detail, pages=failure.pages, views=failure.views
            )
        return ServiceError(f"{failure.kind}: {detail}")

    def _get_executor(self, workers: int) -> ProcessPoolExecutor:
        """A worker pool kept alive across batches.

        Reusing processes lets the worker-side attachment memo
        (:mod:`repro.service.worker`) skip re-parsing the store between
        batches; the pool is rebuilt only when the worker count changes
        (or after :meth:`_discard_executor` dropped a broken one).
        """
        if self._executor is not None and self._executor_workers != workers:
            self._discard_executor(join=True)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=workers)
            self._executor_workers = workers
        return self._executor

    def _discard_executor(self, join: bool = True) -> None:
        """Shut the pool down; ``join=False`` abandons stalled/broken
        workers instead of blocking on them (they exit on their own once
        their current task — bounded by the injected-stall ceiling —
        completes or their pipe closes)."""
        # Suspended queries survive a respawn: quantum state lives
        # in-process (the token carries the full cursor state).
        if self._executor is None:
            return
        executor = self._executor
        self._executor = None
        self._executor_workers = 0
        executor.shutdown(wait=join, cancel_futures=True)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _plan_batch(
        queries: Sequence[Pattern | str], planner: Planner
    ) -> list[Plan]:
        """One plan per input, planning only once per distinct query text.

        The planner additionally memoizes by canonical form, so two
        spellings of the same canonical query still share one plan-cache
        entry; the text memo here just keeps byte-identical duplicates
        from paying even the cache lookup.
        """
        plans: list[Plan] = []
        by_text: dict[str, Plan] = {}
        for query in queries:
            text = query if isinstance(query, str) else query.to_xpath()
            plan = by_text.get(text)
            if plan is None:
                plan = planner.plan(query)
                by_text[text] = plan
            plans.append(plan)
        return plans

    def _read_one(self, read: _Read, plan: Plan) -> QueryOutcome:
        """A single read: the pipeline without the batch's node dedupe,
        so it touches neither ``SharedStats`` nor the stream cache."""
        outcome = self._lookup(read, plan)
        if outcome is not None:
            return outcome
        self._materialize_plan(plan, read.catalog)
        [item] = self._execute(
            [self._job_for(read, 0, plan)], 0, Deadline.after(None),
            read.catalog,
        )
        return self._settle(read, plan, item)

    def _read_batch(
        self,
        read: _Read,
        queries: Sequence[Pattern | str],
        workers: int = 0,
        deadline_s: float | None = None,
    ) -> BatchResult:
        """A batch read: the pipeline with plan CSE + stream replay.

        Phase 1 resolves each input in order: repeats of an already-seen
        eval node join its consumer list, ``_lookup`` answers refuted
        queries and result-cache hits, and the rest found new nodes.
        Phase 2 answers each distinct node once — from the epoch-keyed
        stream cache when possible, otherwise by running its job.
        Phase 3 settles each node once and fans the outcome out with the
        run's recorded counters (replay accounting — see
        :mod:`repro.service.shared`), so outcomes and merged totals are
        byte-identical to a loop of :meth:`evaluate` while only the
        distinct nodes did work.
        """
        begin = time.perf_counter()
        deadline = Deadline.after(deadline_s)
        catalog, planner = read.catalog, read.planner
        stats = self._shared_stats
        stats.batches += 1
        stats.queries += len(queries)
        plans = self._plan_batch(queries, planner)
        outcomes: list[QueryOutcome | None] = [None] * len(plans)
        nodes: dict[tuple, SharedNode] = {}
        for i, plan in enumerate(plans):
            key = node_key(plan, read.mode, read.emit_matches)
            node = nodes.get(key)
            if node is not None:
                node.consumers.append(i)
                continue
            outcomes[i] = self._lookup(read, plan)
            if outcomes[i] is None:
                nodes[key] = SharedNode(
                    digest=node_digest(key), plan=plan, consumers=[i]
                )
        stats.distinct_nodes += len(nodes)
        # The resolved pair's epoch stamps: frozen for a snapshot pair,
        # so pinned readers keep hitting their pre-commit streams.
        epoch = (catalog.maintenance_epoch, planner.generation)
        fresh: list[SharedNode] = []
        for node in nodes.values():
            replayed = self._stream_cache.get((epoch, node.digest))
            if replayed is not None:
                node.replayed = replayed
                stats.stream_hits += 1
            else:
                fresh.append(node)
        # Materialize in first-need order: page layout — and with it
        # physical-read accounting — follows the order views first hit
        # the store, exactly as a loop of ``evaluate`` would lay it out.
        for node in fresh:
            self._materialize_plan(node.plan, catalog)
        jobs = [self._job_for(read, node.first, node.plan) for node in fresh]
        stats.jobs_run += len(jobs)
        ran = {
            item.index: item
            for item in self._execute(jobs, workers, deadline, catalog)
        }
        for item in ran.values():
            if isinstance(item, JobResult):
                stats.executed.merge(item.counters)
                stats.executed_io.merge(item.io)
        # A repeat later in the batch would, in a loop of ``evaluate``,
        # have hit the entry its first occurrence just stored.
        dupes_cached = self._result_cache.capacity > 0
        for node in nodes.values():
            item = (
                node.replayed if node.replayed is not None
                else ran[node.first]
            )
            if isinstance(item, JobFailure):
                # Every consumer is a query that failed: each feeds the
                # breaker and is degraded (or reported) on its own, as
                # its independent evaluation would have been.
                for i in node.consumers:
                    outcomes[i] = self._settle(read, node.plan, item)
                continue
            if node.replayed is None:
                self._stream_cache.put((epoch, node.digest), item)
            outcome = self._settle(read, node.plan, item)
            outcome.shared = node.replayed is not None
            outcomes[node.first] = outcome
            for i in node.consumers[1:]:
                outcomes[i] = replace(
                    outcome, cached=dupes_cached, shared=True
                )
            stats.replayed_queries += len(node.consumers) - (
                0 if node.replayed is not None else 1
            )
        assert all(outcome is not None for outcome in outcomes)
        counters, io = Counters(), IOStats()
        for outcome in outcomes:
            counters.merge(outcome.counters)
            io.merge(outcome.io)
        return BatchResult(
            outcomes, counters, io, time.perf_counter() - begin
        )

    # -- pipeline stages (each exists once) ------------------------------------

    @staticmethod
    def _result_key(read: _Read, plan: Plan) -> tuple:
        """Result-cache key: generation first, so a commit rolls the
        keys and pinned readers keep their pre-commit hits."""
        return (
            read.catalog.generation, plan.query.to_xpath(),
            read.mode.value, read.emit_matches,
        )

    def _lookup(
        self, read: _Read, plan: Plan, cacheable: bool = True
    ) -> QueryOutcome | None:
        """The lookup stage: answer without executing — refuted by the
        DataGuide (``plan.refuted``, decided when the plan was built),
        or replayed from the result cache (skipped for quanta: a
        paginated answer is a stream, not a cacheable value).
        Returns ``None`` when the plan must run."""
        if plan.refuted:
            return self._empty_outcome(plan, refuted=True)
        if cacheable:
            cached = self._result_cache.get(self._result_key(read, plan))
            if cached is not None:
                return replace(cached, cached=True)
        return None

    @staticmethod
    def _job_for(read: _Read, index: int, plan: Plan) -> EvalJob:
        return EvalJob.from_patterns(
            index, plan.query, plan.all_views, plan.algorithm, plan.scheme,
            mode=read.mode, emit_matches=read.emit_matches,
            generation=read.as_of,
        )

    def _settle(
        self, read: _Read, plan: Plan, item: JobResult | JobFailure
    ) -> QueryOutcome:
        """The settle stage: what every executed plan goes through.

        A result resets the breaker's operational-failure counts for
        the plan's views and enters the result cache.  A failure is
        raised as its typed exception where the entry point has no
        degraded mode (``read.on_failure == "raise"``); otherwise it
        feeds the breaker and is answered anyway: degraded from base
        views, or — when the read does not degrade, and always for
        timeouts (the budget is spent) — as a typed error outcome.
        """
        if isinstance(item, JobResult):
            self._note_success(plan.views)
            outcome = self._outcome_from(item, plan)
            self._result_cache.put(self._result_key(read, plan), outcome)
            return outcome
        if read.on_failure == "raise":
            raise self._failure_error(item)
        self._note_failure(plan, item)
        if read.on_failure == "degrade" and item.kind != "timeout":
            return self._evaluate_degraded(read, plan)
        self._failed_queries += 1
        return self._empty_outcome(
            plan, error=f"{item.kind}: {item.message}"
        )

    @staticmethod
    def _outcome_from(result: JobResult, plan: Plan) -> QueryOutcome:
        return QueryOutcome(
            query=plan.query.to_xpath(),
            combo=result.combo,
            match_keys=result.match_keys,
            match_count=result.match_count,
            counters=result.counters,
            io=result.io,
            elapsed_s=result.elapsed_s,
            plan_views=[view.to_xpath() for view in plan.all_views],
        )

    # -- preemptible serving ---------------------------------------------------

    def evaluate_quantum(
        self,
        query: Pattern | str,
        mode: Mode | str = Mode.MEMORY,
        emit_matches: bool = True,
        budget: QuantumBudget | None = None,
        as_of: int | None = None,
    ) -> QuantumOutcome:
        """Answer the first quantum of ``query``; suspend at ``budget``.

        The serving entry point (``repro.server`` sits on top of this):
        plans and materializes like :meth:`evaluate`, but bounds the run
        to one quantum and — when the budget expires first — returns a
        continuation token instead of blocking until completion.  With
        ``budget=None`` the quantum is unbounded and the outcome is
        always ``done``.

        Quanta run in-process, bypassing the worker pool and the result
        cache (a paginated answer is a stream, not a cacheable value).
        Only ViewJoin can suspend: any other plan is an ordinary single
        read answered in one done, non-preemptible quantum, and refuted
        queries answer in a single done outcome.  Store corruption —
        under any plan — degrades exactly like :meth:`evaluate_parallel`:
        breaker fed, query re-answered from base views,
        ``degraded=True``.

        The issued continuation token is stamped with the generation the
        evaluation pinned (``as_of``, or the current one): maintenance
        commits no longer expire it — the chain keeps resuming
        byte-identically against that generation's snapshot until GC
        reaps it.
        """
        read = self._resolve_read(as_of, mode, emit_matches, "degrade")
        plan = read.planner.plan(query)
        if Algorithm.parse(plan.algorithm) is not Algorithm.VIEWJOIN:
            return self._quantum_from_outcome(
                self._read_one(read, plan), preemptible=False
            )
        refuted = self._lookup(read, plan, cacheable=False)
        if refuted is not None:
            return self._quantum_from_outcome(refuted)
        catalog = read.catalog
        self._materialize_plan(plan, catalog)
        return self._quantum_step(read, Continuation(
            generation=catalog.generation,
            store_version=catalog.store_version,
            maintenance_epoch=catalog.maintenance_epoch,
            query=plan.query,
            views=plan.all_views,
            scheme=Scheme.parse(plan.scheme),
            mode=read.mode,
            emit=emit_matches,
            budget=budget,
        ))

    def resume_quantum(self, token: str) -> QuantumOutcome:
        """Resume a suspended query for one more quantum.

        Raises:
            ContinuationMalformed: the token bytes or payload are damaged
                (truncated, bit-flipped, tampered) — typed, never a crash.
            ContinuationExpired: the token is intact but dead — its
                pinned generation has been garbage-collected, a view it
                planned over was quarantined or dropped, the service
                was closed, or it was issued by another service
                instance.  A maintenance commit alone no longer expires
                tokens: the chain resumes against its generation's
                pinned snapshot.
        """
        cont = Continuation.from_payload(decode_token(token))
        if cont.sid not in self._continuations:
            raise self._expired(
                cont,
                f"continuation {cont.sid!r} is not live on this service"
                " (its generation was garbage-collected or the service"
                " was closed — or it was issued by another service"
                " instance)",
            )
        try:
            read = self._resolve_read(
                cont.generation, cont.mode, cont.emit, "degrade"
            )
        except ServiceError:
            raise self._expired(
                cont,
                f"continuation's pinned store generation {cont.generation}"
                " has been garbage-collected (re-issue the query"
                " against the current generation)",
            ) from None
        catalog = read.catalog
        if (
            cont.maintenance_epoch != catalog.maintenance_epoch
            or cont.store_version != catalog.store_version
        ):
            raise self._expired(
                cont,
                "continuation's epoch stamps do not match its pinned"
                " generation (issued by another service instance?)",
            )
        for view in cont.views:
            try:
                catalog.get(view, cont.scheme)
            except StorageError:
                raise self._expired(
                    cont,
                    f"planned view {view.to_xpath()!r} is no longer"
                    " materialized (quarantined or dropped)",
                ) from None
        return self._quantum_step(read, cont)

    def _quantum_step(self, read: _Read, cont: Continuation) -> QuantumOutcome:
        """One engine quantum of a new (``cont.state is None``) or
        resumed chain — the quantum form of execute + settle.  A
        finished chain records the breaker success and retires its
        session; a suspended one gets (or keeps) its session and a fresh
        token; store corruption ends the chain in one degraded done
        quantum through the same ``_settle`` as every other read."""
        begin = time.perf_counter()
        quanta = cont.quanta + 1
        try:
            result, state = engine_evaluate_quantum(
                cont.query, read.catalog, cont.views, Algorithm.VIEWJOIN,
                cont.scheme, mode=cont.mode,
                emit_matches=KEYS if cont.emit else False,
                budget=cont.budget, state=cont.state,
                as_of=cont.generation,
            )
        except StoreCorrupt as exc:
            plan = read.planner.plan(cont.query)
            outcome = self._quantum_from_outcome(
                self._settle(read, plan, JobFailure.from_corrupt(exc)),
                quanta=quanta,
            )
            outcome.elapsed_s = time.perf_counter() - begin
            self._end_session(cont)
            return outcome
        self._quanta_served += 1
        io = IOStats(
            logical_reads=result.io.logical_reads + cont.io[0],
            physical_reads=result.io.physical_reads + cont.io[1],
            pages_written=result.io.pages_written + cont.io[2],
            read_seconds=result.io.read_seconds,
            write_seconds=result.io.write_seconds,
        )
        outcome = QuantumOutcome(
            query=cont.query.to_xpath(),
            combo=combo_label(Algorithm.VIEWJOIN, cont.scheme),
            page=result.matches,
            match_count=result.match_count,
            counters=result.counters,
            io=io,
            elapsed_s=time.perf_counter() - begin,
            done=state is None,
            quanta=quanta,
            plan_views=[view.to_xpath() for view in cont.views],
        )
        if state is None:
            self._note_success(cont.views)
            if cont.sid:
                self._continuations_completed += 1
            self._end_session(cont)
            return outcome
        sid = cont.sid or self._new_continuation(cont.generation)
        outcome.preempted = True
        outcome.token = encode_token(replace(
            cont, sid=sid, state=state, quanta=quanta,
            io=(io.logical_reads, io.physical_reads, io.pages_written),
        ).to_payload())
        return outcome

    def continuation_metrics(self) -> dict[str, int]:
        """Suspend/resume bookkeeping for operators and ``/metrics``."""
        return {
            "active": len(self._continuations),
            "issued": self._continuations_issued,
            "completed": self._continuations_completed,
            "expired": self._continuations_expired,
            "purged": self._continuations_purged,
            "quanta_served": self._quanta_served,
        }

    def _new_continuation(self, generation: int) -> str:
        self._continuation_seq += 1
        sid = f"c{self._continuation_seq}"
        self._continuations[sid] = generation
        self._continuations_issued += 1
        return sid

    def _end_session(self, cont: Continuation) -> None:
        """Retire a chain's session and, once nothing else rests on its
        generation, the pinned snapshot.  A first quantum has neither
        (its generation is the caller's to hold)."""
        if cont.sid:
            self._continuations.pop(cont.sid, None)
            self._release_generation(cont.generation)

    def _expired(
        self, cont: Continuation, reason: str
    ) -> ContinuationExpired:
        """Retire a dead token's session, count the expiry, and hand
        back the typed error for the caller to raise."""
        self._end_session(cont)
        self._continuations_expired += 1
        return ContinuationExpired(reason)

    @staticmethod
    def _quantum_from_outcome(
        outcome: QueryOutcome, quanta: int = 1, preemptible: bool = True
    ) -> QuantumOutcome:
        """Adapt a one-shot outcome (refuted / non-ViewJoin / degraded)
        into a single done quantum."""
        return QuantumOutcome(
            query=outcome.query,
            combo=outcome.combo,
            page=list(outcome.match_keys),
            match_count=outcome.match_count,
            counters=outcome.counters,
            io=outcome.io,
            elapsed_s=outcome.elapsed_s,
            done=True,
            quanta=quanta,
            preemptible=preemptible,
            degraded=outcome.degraded,
            refuted=outcome.refuted,
            error=outcome.error,
            plan_views=list(outcome.plan_views),
        )

    # -- resilience -----------------------------------------------------------

    @staticmethod
    def _plan_view_names(plan: Plan) -> list[str]:
        return [view.name or view.to_xpath() for view in plan.views]

    def _note_success(self, views: Sequence[Pattern]) -> None:
        """A healthy execution resets its views' operational-failure
        counts — on every read path, once per executed plan.  (Base
        views never hold breaker state, so passing them is harmless.)"""
        for view in views:
            self.breaker.record_success(view.name or view.to_xpath())

    def _note_failure(self, plan: Plan, failure: JobFailure) -> None:
        """Feed one failure to the circuit breaker; quarantine trips."""
        names = [
            name for name in failure.views if not name.startswith("base:")
        ] or self._plan_view_names(plan)
        tripped = [
            name for name in names
            if self.breaker.record_failure(name, failure.kind)
        ]
        if tripped:
            self._quarantine(tripped)

    def _quarantine(self, names: Sequence[str]) -> None:
        """Stop planning over (and snapshotting) the named views.

        Three layers move together: the planner excludes them from
        future plans, the catalog drops their rows (version bump — the
        next snapshot and every pooled worker invalidate, so corrupt
        pages are never copied or served again), and the result cache is
        emptied because cached entries may have been computed from pages
        that were already bad.
        """
        self.planner.quarantine(names)
        for name in names:
            self.catalog.remove_view(name)
        self.invalidate_results()
        # Suspended queries are NOT purged wholesale: a session resting
        # on a pinned snapshot still holds the view (copy-on-write
        # pages), and a live-generation session that did plan over a
        # now-dropped view dies typed at resume's per-view check.

    def _evaluate_degraded(self, read: _Read, plan: Plan) -> QueryOutcome:
        """Re-answer a failed query from base views over the base
        document — a fresh in-memory catalog, untouched by whatever
        damaged the store.  The read's resolved catalog supplies the
        document that is the base truth (a pinned snapshot's for a
        snapshot read, the live one otherwise).  Fault injection is
        suspended for the rerun: the chaos harness simulates *store*
        failures, and this path is the recovery route that must stay
        correct."""
        self._degraded_queries += 1
        base_views = [
            self.planner._base_view(qnode) for qnode in plan.query.nodes
        ]
        job = EvalJob.from_patterns(
            0, plan.query, base_views, plan.algorithm, plan.scheme,
            mode=read.mode, emit_matches=read.emit_matches,
        )
        with ViewCatalog(
            read.catalog.document,
            partial_distance=read.catalog.partial_distance,
        ) as fallback, faults.suspended():
            result = run_job(fallback, job, expect_warm=False)
        outcome = self._outcome_from(result, plan)
        outcome.plan_views = [view.to_xpath() for view in base_views]
        outcome.degraded = True
        return outcome

    @staticmethod
    def _empty_outcome(
        plan: Plan, refuted: bool = False, error: str = ""
    ) -> QueryOutcome:
        """An answer with no engine run behind it: refuted by the
        DataGuide, or a typed ``"<kind>: <detail>"`` failure."""
        return QueryOutcome(
            query=plan.query.to_xpath(),
            combo=combo_label(plan.algorithm, plan.scheme),
            match_keys=[],
            match_count=0,
            counters=Counters(),
            io=IOStats(),
            elapsed_s=0.0,
            refuted=refuted,
            error=error,
        )

    def resilience_metrics(self) -> dict[str, object]:
        """Quarantine/retry/degradation counters for operators."""
        return {
            "quarantined_views": list(self.breaker.quarantined),
            "breaker": self.breaker.metrics(),
            "degraded_queries": self._degraded_queries,
            "failed_queries": self._failed_queries,
            "job_retries": self._job_retries,
            "pool_respawns": self._pool_respawns,
            "deadline_expiries": self._deadline_expiries,
            "pinned_generations": len(self._generation_snapshots),
            "generations_reaped": self._generations_reaped,
            "generation_cache_evictions": self._generation_cache_evictions,
        }

    def snapshot(self) -> str:
        """Ensure (and return) an on-disk store reflecting the current
        view set.  Parallel dispatch calls this lazily; exposing it lets
        callers pay the save cost up front, outside any timed region."""
        return self._ensure_snapshot()

    def _ensure_snapshot(self) -> str:
        """Path of a store that reflects the catalog's current view set.

        A service attached to an up-to-date on-disk store hands workers
        that store directly; otherwise the catalog is saved to a private
        temp directory, re-saved only when the view set has grown since.
        """
        version = self.catalog.version
        if self._store_path is not None and version == self._store_version:
            return self._store_path
        if self._snapshot_dir is None:
            self._snapshot_dir = tempfile.mkdtemp(prefix="repro-service-")
        if self._snapshot_version != version:
            save_catalog(self.catalog, self._snapshot_dir)
            self._snapshot_version = version
            # The temp store numbers its generations itself (one per
            # save); record the published one for stripe pinning.
            self._snapshot_generation = read_store_version(
                self._snapshot_dir
            )[0]
        return self._snapshot_dir

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the executor, snapshot dir and owned catalog.

        Idempotent, and safe to call after a failed batch: ``__exit__``
        runs it even when an evaluation raised, so a ``with`` block can
        never leak a :class:`ProcessPoolExecutor`.
        """
        if self._closed:
            return
        self._closed = True
        # Stale tokens resume as typed ContinuationExpired instead of
        # touching recycled state.
        self._continuations_purged += len(self._continuations)
        self._continuations.clear()
        self._discard_executor(join=True)
        self._stream_cache.close()
        for pin in self._generation_snapshots.values():
            pin.catalog.close()
        self._generation_snapshots.clear()
        self._user_pins.clear()
        if self._snapshot_dir is not None:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
            self._snapshot_dir = None
            self._snapshot_version = None
            self._snapshot_generation = None
        if self._owns_catalog:
            self.catalog.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
