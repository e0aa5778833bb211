"""The multi-process query service.

:class:`QueryService` is the layer the ROADMAP's "heavy traffic" goal
asks for on top of the single-query engine: it owns one materialized
:class:`~repro.storage.catalog.ViewCatalog` (built in memory, or attached
from a :func:`~repro.storage.persistence.save_catalog` store), answers
queries through a plan-cached :class:`~repro.planner.Planner`, and fans
independent queries out across a :class:`~concurrent.futures.ProcessPoolExecutor`
whose workers reattach the persisted store and run the existing engine.

Determinism contract
--------------------
Every job runs **cold** (buffer pool dropped per repeat, stats reset per
run) and the per-job counters are folded in job-index order, so
``evaluate_parallel`` returns match keys and aggregated work/I-O counters
byte-identical to ``evaluate_batch`` over the same queries — whatever the
worker count or scheduling order.  Wall-clock fields are the only
non-deterministic outputs.

Cache layers
------------
* the planner's **plan cache** (parse → cover → :class:`Plan`, memoized
  per catalog generation; invalidated by ``register`` /
  ``adopt_catalog_views``);
* an optional keyed **result cache** in the service itself
  (``result_cache_size > 0``), keyed by store generation (DESIGN.md
  §16): a maintenance commit rolls the keys instead of purging, so
  readers pinned to an older generation keep their hits; view-set
  changes within a generation still invalidate explicitly;
* the shared executor's **stream cache** (:mod:`repro.service.streams`),
  memoizing eval-node match streams across batches, keyed by
  ``(catalog epoch, node hash)`` — per generation, like the result
  cache — and cleared with it on view-set changes.

Shared-scan batches
-------------------
``evaluate_batch`` / ``evaluate_parallel`` default to the shared-scan
executor (:mod:`repro.service.shared`): queries are hash-consed into
distinct eval nodes, each node runs once, and its stream plus recorded
counters replay to every consumer — byte-identical outcomes to the
independent per-query path (the determinism contract makes a
duplicate's would-be accounting equal to the original's), at a fraction
of the executed work.  ``REPRO_SHARED=0`` or ``shared=False`` forces
the independent path.

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
from typing import Sequence

from repro.algorithms.base import Counters, Mode
from repro.algorithms.engine import (
    Algorithm,
    combo_label,
    evaluate_quantum as engine_evaluate_quantum,
)
from repro.algorithms.preempt import PlanState, QuantumBudget
from repro.caching import CacheStats, LRUCache
from repro.errors import (
    ContinuationExpired,
    ContinuationMalformed,
    QueryTimeout,
    ReproError,
    ServiceError,
    StorageError,
    StoreCorrupt,
    WorkerLost,
)
from repro.planner import Plan, Planner
from repro.resilience import faults
from repro.selection.online import (
    ADVISOR_PREFIX,
    AdoptedView,
    AdoptionPlan,
    CalibratedStatistics,
    Measurement,
    WorkloadLog,
    advisor_enabled,
    advisor_view_name,
    plan_adoption,
    rebalance_to_budget,
)
from repro.selection.estimates import DocumentStatistics
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import Deadline, RetryPolicy, wait
from repro.service.jobs import (
    EvalJob,
    JobFailure,
    JobResult,
    merge_results,
    run_job,
)
from repro.service.continuation import decode_token, encode_token
from repro.service.shared import (
    SharedNode,
    SharedStats,
    node_digest,
    node_key,
    shared_enabled,
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

    @property
    def measured(self) -> Measurement:
        """The single authoritative measured-counter contract.

        External consumers (the workload recorder, benchmarks, user
        telemetry) read this instead of re-deriving totals from the raw
        ``counters``/``io`` objects.  For cached and shared replays the
        values are the run's *recorded* deterministic accounting — equal
        to what an independent execution would have measured, i.e. the
        query's logical demand.
        """
        return Measurement(
            work=self.counters.work,
            elements_scanned=self.counters.elements_scanned,
            comparisons=self.counters.comparisons,
            logical_reads=self.io.logical_reads,
            physical_reads=self.io.physical_reads,
            matches=self.match_count,
            elapsed_s=self.elapsed_s,
        )


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

    ``page`` holds only this quantum's match keys; concatenating the
    pages of one continuation chain yields exactly the uninterrupted
    run's matches, in the same order, each exactly once.  ``counters``
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


class QueryService:
    """Plan-cached, optionally parallel query answering over one catalog.

    Args:
        catalog: an existing in-memory catalog to serve from (mutually
            exclusive with ``store_path``).
        store_path: a ``save_catalog`` store directory to attach
            read-mostly; the service owns (and closes) the loaded catalog.
        scheme / algorithm: defaults handed to the planner.
        plan_cache_size: LRU size of the planner's plan cache.
        result_cache_size: LRU size of the keyed result cache; 0 disables.
        stream_cache_size: LRU size (in eval nodes) of the shared
            executor's sub-plan stream cache; 0 disables cross-batch
            stream replay (within-batch CSE still applies).
        prune_with_dataguide: refute impossible queries before running.
        advisor: turn the online adaptive view advisor on — record the
            query stream into a :class:`WorkloadLog` and (when
            ``advisor_interval > 0``) periodically run
            :meth:`advisor_cycle` to auto-materialize/drop views under
            ``advisor_budget_bytes``.  ``REPRO_ADVISOR=0`` overrides the
            flag, disabling recording and the loop entirely — no
            per-query overhead beyond one attribute check.
        advisor_budget_bytes: storage budget for advisor-owned views.
        advisor_interval: recorded outcomes between automatic advisor
            cycles; 0 leaves cycles to explicit :meth:`advisor_cycle`
            calls.
        advisor_max_view_size: largest candidate view in pattern nodes.
        advisor_decay: demand-weight decay applied after each cycle
            (how fast stale traffic loses its claim on the budget).
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
        plan_cache_size: int = 128,
        result_cache_size: int = 0,
        stream_cache_size: int = 32,
        prune_with_dataguide: bool = True,
        retry_policy: RetryPolicy | None = None,
        failure_threshold: int = 3,
        verify: bool = False,
        advisor: bool = False,
        advisor_budget_bytes: float = float(1 << 20),
        advisor_interval: int = 0,
        advisor_max_view_size: int = 4,
        advisor_decay: float = 0.5,
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
            prune_with_dataguide=prune_with_dataguide,
            plan_cache_size=plan_cache_size,
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
        self._stream_cache = StreamCache(stream_cache_size)
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
        self._continuations: dict[str, dict[str, int]] = {}
        self._continuation_seq = 0
        self._continuations_issued = 0
        self._continuations_completed = 0
        self._continuations_expired = 0
        self._continuations_purged = 0
        self._quanta_served = 0
        self._job_retries = 0
        self._pool_respawns = 0
        self._deadline_expiries = 0
        # One None-check per answered query is the advisor's entire
        # disabled-path overhead (`advisor=False` or REPRO_ADVISOR=0).
        self._advisor_log: WorkloadLog | None = (
            WorkloadLog() if advisor and advisor_enabled() else None
        )
        self._advisor_budget = float(advisor_budget_bytes)
        self._advisor_interval = int(advisor_interval)
        self._advisor_max_view_size = int(advisor_max_view_size)
        self._advisor_decay = float(advisor_decay)
        self._advisor_adopted: dict[str, AdoptedView] = {}
        self._advisor_events: list[dict[str, object]] = []
        self._advisor_cycles = 0
        self._advisor_since_cycle = 0
        self._advisor_stats: DocumentStatistics | None = None
        self._advisor_stats_epoch: int | None = None

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
        * the planner re-syncs (stale DataGuide and plans dropped,
          dropped views deregistered).  The result and stream caches
          are **not** purged: their keys carry the generation, so the
          commit rolls them — pinned readers keep their pre-commit
          hits, post-commit reads key fresh entries.

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
            self._auto_gc()
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
        soft = {
            record["generation"]
            for record in self._continuations.values()
            if "generation" in record
        }
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
                sid for sid, record in self._continuations.items()
                if record.get("generation") in reaped
            ]
            # Purged server-side (the resume that observes the loss is
            # what counts as the *expiry*, typed, at the sid miss).
            for sid in stale:
                del self._continuations[sid]
            self._continuations_purged += len(stale)
        return report

    def _auto_gc(self) -> None:
        """Post-commit GC under the configured high-water mark."""
        if self._store_path is not None and self._generation_budget is not None:
            self.gc_generations()

    def _generation_referenced(self, generation: int) -> bool:
        """Does anything (session or user pin) still rest on it?"""
        if self._user_pins.get(generation):
            return True
        return any(
            record.get("generation") == generation
            for record in self._continuations.values()
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
        self, as_of: int | None
    ) -> tuple[ViewCatalog, Planner]:
        """The catalog/planner pair a read pinned ``as_of`` runs over:
        the live pair for the current generation (or ``None``), a
        frozen snapshot for a pinned older one, a typed error for a
        generation this service does not hold."""
        if as_of is None or as_of == self.catalog.generation:
            return self.catalog, self.planner
        pin = self._generation_snapshots.get(as_of)
        if pin is None:
            raise ServiceError(
                f"generation {as_of} is not pinned on this service"
                f" (current generation is {self.catalog.generation};"
                " call pin_generation() before committing updates, or"
                " the generation has been garbage-collected)"
            )
        return pin.catalog, pin.planner

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

    # -- online advisor -------------------------------------------------------

    @property
    def advisor_log(self) -> WorkloadLog | None:
        """The live workload log, ``None`` when the advisor is off."""
        return self._advisor_log

    def _advisor_observe(self, outcomes: Sequence[QueryOutcome]) -> None:
        """Fold answered queries into the workload log; run a cycle when
        the configured cadence is due.  No-op (one attribute check) when
        the advisor is disabled."""
        log = self._advisor_log
        if log is None:
            return
        for outcome in outcomes:
            log.record(outcome)
        self._advisor_since_cycle += len(outcomes)
        if (
            self._advisor_interval > 0
            and self._advisor_since_cycle >= self._advisor_interval
        ):
            self.advisor_cycle()

    def _advisor_statistics(self) -> DocumentStatistics:
        """Document statistics cached per maintenance epoch (the document
        only changes at maintenance commits)."""
        epoch = self.catalog.maintenance_epoch
        if self._advisor_stats is None or self._advisor_stats_epoch != epoch:
            self._advisor_stats = DocumentStatistics.collect(
                self.catalog.document
            )
            self._advisor_stats_epoch = epoch
        return self._advisor_stats

    def advisor_cycle(self) -> AdoptionPlan:
        """Run one adoption cycle: calibrate, plan, adopt/drop, decay.

        Harvests measured list cardinalities from every materialized
        catalog view into the log (calibrating the cost model), asks the
        controller for a budgeted adopt/keep/drop plan over the logged
        demand, then applies it through the ordinary registration path —
        adopted views materialize immediately (PR 4 maintenance keeps
        them fresh; the circuit breaker can quarantine them like any
        other view) and drops invalidate everything a ``register`` /
        ``apply_updates`` would: planner generation (plan cache), result
        and stream caches, and — via the catalog version bump — the
        worker snapshot and pooled-worker attachments.

        Deterministic: decisions are a pure function of the recorded log
        and the catalog's measured sizes (no wall clock, no randomness).
        Raises :class:`ServiceError` when the advisor is disabled.
        """
        log = self._advisor_log
        if log is None:
            raise ServiceError(
                "advisor is disabled on this service"
                " (advisor=False or REPRO_ADVISOR=0)"
            )
        self._advisor_since_cycle = 0
        self._advisor_cycles += 1
        cycle = self._advisor_cycles
        stats = self._advisor_statistics()
        log.harvest_catalog(self.catalog)
        calibration = CalibratedStatistics.from_log(stats, log)
        user_views = {
            view.to_xpath()
            for view in self.planner.registered
            if not (view.name or "").startswith(ADVISOR_PREFIX)
        }
        plan = plan_adoption(
            log,
            calibration,
            budget_bytes=self._advisor_budget,
            adopted={
                xpath: view.bytes
                for xpath, view in self._advisor_adopted.items()
            },
            existing=user_views,
            max_view_size=self._advisor_max_view_size,
        )
        for decision in plan.decisions:
            if decision.action == "drop":
                self._advisor_events.append(
                    {"cycle": cycle, **decision.as_dict()}
                )
        self._drop_advisor_views(plan.drop)
        for pattern in plan.adopt:
            xpath = pattern.to_xpath()
            name = advisor_view_name(xpath)
            # Register by canonical text: the planner names parsed
            # patterns, and the ``adv:`` name is what marks the view as
            # advisor-owned (droppable) in catalog and planner alike.
            self.register(xpath, name=name)
            measured_bytes = float(sum(
                info.size_bytes
                for (view_name, __), info in self.catalog.entries()
                if view_name == name
            ))
            benefit = next(
                (
                    decision.benefit
                    for decision in plan.decisions
                    if decision.action == "adopt"
                    and decision.xpath == xpath
                ),
                0.0,
            )
            self._advisor_adopted[xpath] = AdoptedView(
                name=name, xpath=xpath, bytes=measured_bytes,
                benefit=benefit, cycle=cycle,
            )
            self._advisor_events.append({
                "cycle": cycle, "action": "adopt", "view": xpath,
                "bytes": round(measured_bytes, 1),
                "benefit": round(benefit, 1),
                "reason": "best remaining benefit density within budget",
            })
        # The knapsack packed by *estimated* bytes for new candidates;
        # materialization just measured the truth.  Evict (lowest
        # benefit density first) until the measured total fits again.
        for xpath in rebalance_to_budget(
            self._advisor_adopted, self._advisor_budget
        ):
            self._advisor_events.append({
                "cycle": cycle, "action": "drop", "view": xpath,
                "bytes": round(self._advisor_adopted[xpath].bytes, 1),
                "benefit": round(self._advisor_adopted[xpath].benefit, 1),
                "reason": "measured bytes exceeded the budget after"
                          " materialization",
            })
            self._drop_advisor_views([xpath])
        log.decay(self._advisor_decay)
        return plan

    def _drop_advisor_views(self, xpaths: Sequence[str]) -> None:
        """Drop advisor-owned views with full invalidation.

        Mirrors :meth:`_quarantine`: the planner stops planning over the
        view (generation bump → plan cache), the catalog drops its rows
        (version bump → next snapshot re-saves and pooled workers
        reattach), and the result/stream caches are emptied.
        """
        dropped = False
        for xpath in xpaths:
            adopted = self._advisor_adopted.pop(xpath, None)
            if adopted is None:
                continue
            self.planner.deregister(adopted.name)
            self.catalog.remove_view(adopted.name)
            dropped = True
        if dropped:
            self.invalidate_results()
            # Sessions survive: resume's per-view check expires (typed)
            # exactly the ones that planned over a dropped view.

    def advisor_metrics(self) -> dict[str, object]:
        """Recorder/controller telemetry for operators and benches."""
        log = self._advisor_log
        return {
            "enabled": log is not None,
            "recorded": log.recorded if log is not None else 0,
            "patterns": len(log) if log is not None else 0,
            "cycles": self._advisor_cycles,
            "budget_bytes": self._advisor_budget,
            "adopted_bytes": sum(
                view.bytes for view in self._advisor_adopted.values()
            ),
            "adopted_views": [
                view.as_dict() for view in self._advisor_adopted.values()
            ],
            "events": list(self._advisor_events),
        }

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
            self._materialize_plan(self.planner.plan(query))
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

    def _materialize_plan(
        self, plan: Plan, catalog: ViewCatalog | None = None
    ) -> None:
        if catalog is None:
            catalog = self.catalog
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
        superseded it.
        """
        outcome = self._evaluate_one(
            query, Mode.parse(mode), emit_matches, as_of=as_of
        )
        self._advisor_observe((outcome,))
        return outcome

    def evaluate_batch(
        self,
        queries: Sequence[Pattern | str],
        mode: Mode | str = Mode.MEMORY,
        emit_matches: bool = True,
        shared: bool | None = None,
        as_of: int | None = None,
    ) -> BatchResult:
        """Evaluate ``queries`` in-process; merge counters in input order.

        By default (``shared=None`` honours ``REPRO_SHARED``) the batch
        runs through the shared-scan executor: byte-identical queries
        are deduped before planning, identical eval nodes run once, and
        recorded streams/counters replay to every consumer — outcomes
        stay byte-identical to ``shared=False`` (one independent
        evaluation per input), which remains available as the
        differential escape hatch.
        """
        mode = Mode.parse(mode)
        if shared is None:
            shared = shared_enabled()
        begin = time.perf_counter()
        if shared:
            outcomes = self._evaluate_shared(
                queries, mode, emit_matches, workers=0,
                deadline=Deadline.after(None), degrade=False,
                resilient=False, as_of=as_of,
            )
        else:
            outcomes = [
                self._evaluate_one(query, mode, emit_matches, as_of=as_of)
                for query in queries
            ]
        return self._assemble(outcomes, time.perf_counter() - begin)

    def evaluate_parallel(
        self,
        queries: Sequence[Pattern | str],
        workers: int = 2,
        mode: Mode | str = Mode.MEMORY,
        emit_matches: bool = True,
        deadline_s: float | None = None,
        degrade: bool = True,
        shared: bool | None = None,
    ) -> BatchResult:
        """Fan ``queries`` out over ``workers`` processes.

        Results and merged counters are byte-identical to
        :meth:`evaluate_batch` on the same queries; only wall-clock
        differs.  ``workers <= 1`` degenerates to the sequential path.
        By default (``shared=None`` honours ``REPRO_SHARED``) the batch
        is first hash-consed into distinct eval nodes and only those
        become jobs (:mod:`repro.service.shared`); ``shared=False``
        dispatches one job per non-cached input.

        Resilience: ``deadline_s`` bounds the whole batch (expired jobs
        come back as ``error`` outcomes instead of hanging); lost
        workers are respawned and their jobs resubmitted under the
        service's :class:`RetryPolicy`; jobs that keep failing — or hit
        checksum corruption — trip the per-view circuit breaker, and
        with ``degrade=True`` their queries are transparently
        re-answered from base views over the base document
        (``degraded=True`` on the outcome, correctness preserved).
        """
        mode = Mode.parse(mode)
        if shared is None:
            shared = shared_enabled()
        begin = time.perf_counter()
        deadline = Deadline.after(deadline_s)
        if shared:
            outcomes = self._evaluate_shared(
                queries, mode, emit_matches, workers=workers,
                deadline=deadline, degrade=degrade, resilient=True,
            )
            return self._assemble(outcomes, time.perf_counter() - begin)
        generation = self.catalog.generation
        plans = self._plan_batch(queries)
        outcomes: list[QueryOutcome | None] = [None] * len(queries)
        jobs: list[EvalJob] = []
        plan_at: dict[int, Plan] = {}
        for i, plan in enumerate(plans):
            canonical = plan.query.to_xpath()
            if self.planner.refutes(plan.query):
                outcomes[i] = self._refuted_outcome(plan, canonical)
                continue
            cached = self._result_cache.get(
                (generation, canonical, mode.value, emit_matches)
            )
            if cached is not None:
                outcomes[i] = replace(cached, cached=True)
                continue
            plan_at[i] = plan
            jobs.append(
                EvalJob.from_patterns(
                    i, plan.query, plan.all_views, plan.algorithm,
                    plan.scheme, mode=mode, emit_matches=emit_matches,
                )
            )
        self._materialize_batch([plan_at[i] for i in sorted(plan_at)])
        try:
            results, failures = self._run_jobs_resilient(
                jobs, workers, warm=True, deadline=deadline
            )
        except StoreCorrupt as exc:
            # The snapshot save itself hit corruption: every dispatched
            # job fails typed and (optionally) degrades below.
            results = []
            failures = [
                JobFailure(
                    index=job.index, kind="store-corrupt",
                    message=str(exc), views=exc.views, pages=exc.pages,
                )
                for job in jobs
            ]
        for result in results:
            plan = plan_at[result.index]
            outcome = self._outcome_from(result, plan)
            for name in self._plan_view_names(plan):
                self.breaker.record_success(name)
            self._result_cache.put(
                (generation, outcome.query, mode.value, emit_matches),
                outcome,
            )
            outcomes[result.index] = outcome
        for failure in failures:
            plan = plan_at[failure.index]
            self._note_failure(plan, failure)
            if degrade and failure.kind != "timeout":
                outcomes[failure.index] = self._evaluate_degraded(
                    plan, mode, emit_matches
                )
            else:
                self._failed_queries += 1
                outcomes[failure.index] = self._error_outcome(plan, failure)
        assert all(outcome is not None for outcome in outcomes)
        return self._assemble(outcomes, time.perf_counter() - begin)

    def evaluate_jobs(
        self, jobs: Sequence[EvalJob], workers: int = 0
    ) -> list[JobResult]:
        """Explicit-plan entry point (the bench harness grid): warm up
        every (view, scheme) once, then run the jobs, parallel when
        ``workers > 1``.  Results come back in job-index order."""
        jobs = list(jobs)
        self.warmup_jobs(jobs)
        return self.run_jobs(jobs, workers=workers, warm=True)

    def run_jobs(
        self,
        jobs: Sequence[EvalJob],
        workers: int = 0,
        warm: bool = True,
        deadline_s: float | None = None,
    ) -> list[JobResult]:
        """Run already-warm jobs, in-process or across worker processes.

        Raises the first failure as its typed exception
        (:class:`QueryTimeout` / :class:`WorkerLost` /
        :class:`StoreCorrupt`) — the explicit-plan API has no degraded
        mode; use :meth:`evaluate_parallel` for that.
        """
        results, failures = self._run_jobs_resilient(
            list(jobs), workers, warm=warm,
            deadline=Deadline.after(deadline_s),
        )
        if failures:
            raise self._failure_error(failures[0])
        return results

    def _run_jobs_resilient(
        self,
        jobs: list[EvalJob],
        workers: int,
        warm: bool,
        deadline: Deadline,
    ) -> tuple[list[JobResult], list[JobFailure]]:
        """Run jobs with bounded retries; never hangs, never raises for a
        single job's failure.

        Returns ``(results, failures)``, both in job-index order, their
        indices disjoint and jointly covering the input.  Each job's
        result is recorded exactly once (first success wins), and jobs
        run cold, so counters merged from ``results`` are byte-identical
        to a failure-free sequential pass over the same successes.
        """
        if not jobs:
            return [], []
        if workers <= 1:
            return self._run_jobs_sequential(jobs, warm, deadline)
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
        results: dict[int, JobResult] = {}
        failures: dict[int, JobFailure] = {}
        for attempt, delay in enumerate(self.retry_policy.delays("run-jobs")):
            if not pending:
                break
            if attempt:
                self._job_retries += len(pending)
                wait(deadline.clamp(delay))
            if deadline.expired:
                self._mark_timeouts(pending, failures)
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
                    if item.index not in pending:
                        continue
                    del pending[item.index]
                    if isinstance(item, JobResult):
                        results[item.index] = item
                    else:
                        # Typed worker-side failure (store corruption):
                        # permanent, never retried — bytes do not heal.
                        failures[item.index] = item
            if not_done:
                # Deadline hit with workers still running (e.g. stalled):
                # abandon this pool rather than joining a stuck process.
                self._deadline_expiries += 1
                for future in not_done:
                    future.cancel()
                self._discard_executor(join=False)
                self._mark_timeouts(pending, failures)
                break
            if pool_broken:
                # A worker died mid-stripe; respawn the pool and resubmit
                # whatever is still pending on the next attempt.
                self._pool_respawns += 1
                self._discard_executor(join=False)
        for index in sorted(pending):
            failures[index] = JobFailure(
                index=index,
                kind="worker-lost",
                message=(
                    f"worker died on every one of"
                    f" {self.retry_policy.max_attempts} attempt(s)"
                ),
                views=tuple(
                    name or xpath for xpath, name in pending[index].views
                ),
            )
        return (
            [results[index] for index in sorted(results)],
            [failures[index] for index in sorted(failures)],
        )

    def _run_jobs_sequential(
        self, jobs: list[EvalJob], warm: bool, deadline: Deadline
    ) -> tuple[list[JobResult], list[JobFailure]]:
        results: list[JobResult] = []
        failures: list[JobFailure] = []
        for job in jobs:
            if deadline.expired:
                failures.append(JobFailure(
                    index=job.index, kind="timeout",
                    message="batch deadline expired before this job ran",
                ))
                continue
            try:
                results.append(run_job(self.catalog, job, expect_warm=warm))
            except StoreCorrupt as exc:
                failures.append(JobFailure(
                    index=job.index, kind="store-corrupt",
                    message=str(exc),
                    views=exc.views or tuple(
                        name or xpath for xpath, name in job.views
                    ),
                    pages=exc.pages,
                ))
        return results, failures

    def _mark_timeouts(
        self, pending: dict[int, EvalJob], failures: dict[int, JobFailure]
    ) -> None:
        for index in sorted(pending):
            failures[index] = JobFailure(
                index=index, kind="timeout",
                message="batch deadline expired before this job finished",
                views=tuple(
                    name or xpath for xpath, name in pending[index].views
                ),
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
        # Quantum state lives in-process (the token carries the full
        # cursor state), so a pool respawn does not invalidate
        # continuations wholesale: only sessions whose pinned generation
        # is no longer resolvable anywhere are dropped.
        self._expire_reaped_sessions()
        if self._executor is None:
            return
        executor = self._executor
        self._executor = None
        self._executor_workers = 0
        executor.shutdown(wait=join, cancel_futures=True)

    # -- internals ------------------------------------------------------------

    def _plan_batch(
        self,
        queries: Sequence[Pattern | str],
        planner: Planner | None = None,
    ) -> list[Plan]:
        """One plan per input, planning only once per distinct query text.

        The planner additionally memoizes by canonical form, so two
        spellings of the same canonical query still share one plan-cache
        entry; the text memo here just keeps byte-identical duplicates
        from paying even the cache lookup.
        """
        if planner is None:
            planner = self.planner
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

    def _materialize_batch(
        self, plans: Sequence[Plan], catalog: ViewCatalog | None = None
    ) -> None:
        """Materialize every plan's views once, in first-need order.

        Page layout — and with it physical-read accounting — follows the
        order views first hit the store, so this mirrors the independent
        path's per-query materialization order exactly
        (:meth:`~repro.storage.catalog.ViewCatalog.add` is idempotent,
        so repeats were no-ops there too).
        """
        seen: set[int] = set()
        for plan in plans:
            if id(plan) in seen:
                continue
            seen.add(id(plan))
            self._materialize_plan(plan, catalog)

    def _evaluate_shared(
        self,
        queries: Sequence[Pattern | str],
        mode: Mode,
        emit_matches: bool,
        workers: int,
        deadline: Deadline,
        degrade: bool,
        resilient: bool,
        as_of: int | None = None,
    ) -> list[QueryOutcome]:
        """Shared-scan batch execution (plan CSE + stream replay).

        Phase 1 resolves each input in order: refuted queries answer
        immediately, repeats of an already-seen eval node join its
        consumer list, result-cache hits replay as before, and the rest
        found new nodes.  Phase 2 answers each distinct node once — from
        the epoch-keyed stream cache when possible, otherwise by running
        its job (sequentially here, or through the resilient dispatcher
        for ``evaluate_parallel``).  Phase 3 fans results out: every
        consumer receives the node's match stream and the run's recorded
        counters (replay accounting — see :mod:`repro.service.shared`),
        so outcomes and merged totals are byte-identical to the
        independent path while only the distinct nodes did work.
        """
        catalog, planner = self._resolve_read(as_of)
        generation = catalog.generation
        stats = self._shared_stats
        stats.batches += 1
        stats.queries += len(queries)
        plans = self._plan_batch(queries, planner)
        outcomes: list[QueryOutcome | None] = [None] * len(plans)
        nodes: dict[tuple, SharedNode] = {}
        for i, plan in enumerate(plans):
            canonical = plan.query.to_xpath()
            if planner.refutes(plan.query):
                outcomes[i] = self._refuted_outcome(plan, canonical)
                continue
            key = node_key(plan, mode, emit_matches)
            node = nodes.get(key)
            if node is not None:
                node.consumers.append(i)
                continue
            cached = self._result_cache.get(
                (generation, canonical, mode.value, emit_matches)
            )
            if cached is not None:
                outcomes[i] = replace(cached, cached=True)
                continue
            nodes[key] = SharedNode(
                ordinal=len(nodes), digest=node_digest(key), plan=plan,
                consumers=[i],
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
        self._materialize_batch([node.plan for node in fresh], catalog)
        jobs = [
            EvalJob.from_patterns(
                node.first, node.plan.query, node.plan.all_views,
                node.plan.algorithm, node.plan.scheme, mode=mode,
                emit_matches=emit_matches, generation=as_of,
            )
            for node in fresh
        ]
        stats.jobs_run += len(jobs)
        if resilient:
            try:
                results, failures = self._run_jobs_resilient(
                    jobs, workers, warm=True, deadline=deadline
                )
            except StoreCorrupt as exc:
                results = []
                failures = [
                    JobFailure(
                        index=job.index, kind="store-corrupt",
                        message=str(exc), views=exc.views, pages=exc.pages,
                    )
                    for job in jobs
                ]
        else:
            # The sequential entry point has no degraded mode: a typed
            # failure propagates raw, exactly like ``_evaluate_one``.
            results = [
                run_job(catalog, job, expect_warm=True) for job in jobs
            ]
            failures = []
        for result in results:
            stats.executed.merge(result.counters)
            stats.executed_io.merge(result.io)
        resolved = {result.index: result for result in results}
        failed = {failure.index: failure for failure in failures}
        # Sequential batches see evolving result-cache state (a repeat
        # later in the batch would have hit the entry its first
        # occurrence just stored); the parallel path checks the cache
        # for every input up front, so its repeats all report cold.
        dupes_cached = not resilient and self._result_cache.capacity > 0
        for node in nodes.values():
            result = node.replayed
            if result is None:
                result = resolved.get(node.first)
            if result is not None:
                if node.replayed is None:
                    self._stream_cache.put((epoch, node.digest), result)
                outcome = self._outcome_from(result, node.plan)
                outcome.shared = node.replayed is not None
                self._result_cache.put(
                    (generation, outcome.query, mode.value, emit_matches),
                    outcome,
                )
                if resilient:
                    names = self._plan_view_names(node.plan)
                    for __ in node.consumers:
                        for name in names:
                            self.breaker.record_success(name)
                outcomes[node.first] = outcome
                for i in node.consumers[1:]:
                    outcomes[i] = replace(
                        outcome, cached=dupes_cached, shared=True
                    )
                stats.replayed_queries += len(node.consumers) - (
                    0 if node.replayed is not None else 1
                )
                continue
            failure = failed[node.first]
            for i in node.consumers:
                self._note_failure(node.plan, failure)
                if degrade and failure.kind != "timeout":
                    outcomes[i] = self._evaluate_degraded(
                        node.plan, mode, emit_matches
                    )
                else:
                    self._failed_queries += 1
                    outcomes[i] = self._error_outcome(node.plan, failure)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes

    def _evaluate_one(
        self,
        query: Pattern | str,
        mode: Mode,
        emit_matches: bool,
        as_of: int | None = None,
    ) -> QueryOutcome:
        catalog, planner = self._resolve_read(as_of)
        plan = planner.plan(query)
        canonical = plan.query.to_xpath()
        if planner.refutes(plan.query):
            return self._refuted_outcome(plan, canonical)
        key = (catalog.generation, canonical, mode.value, emit_matches)
        cached = self._result_cache.get(key)
        if cached is not None:
            return replace(cached, cached=True)
        self._materialize_plan(plan, catalog)
        job = EvalJob.from_patterns(
            0, plan.query, plan.all_views, plan.algorithm, plan.scheme,
            mode=mode, emit_matches=emit_matches, generation=as_of,
        )
        outcome = self._outcome_from(
            run_job(catalog, job, expect_warm=True), plan
        )
        self._result_cache.put(key, outcome)
        return outcome

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
        cache (a paginated answer is a stream, not a cacheable value);
        refuted queries and non-ViewJoin plans answer in a single done
        outcome.  Store corruption mid-quantum degrades exactly like
        :meth:`evaluate_parallel`: breaker fed, query re-answered from
        base views, ``degraded=True``.

        The issued continuation token is stamped with the generation the
        evaluation pinned (``as_of``, or the current one): maintenance
        commits no longer expire it — the chain keeps resuming
        byte-identically against that generation's snapshot until GC
        reaps it.
        """
        mode = Mode.parse(mode)
        catalog, planner = self._resolve_read(as_of)
        plan = planner.plan(query)
        canonical = plan.query.to_xpath()
        if planner.refutes(plan.query):
            return self._quantum_from_outcome(
                self._refuted_outcome(plan, canonical)
            )
        if Algorithm.parse(plan.algorithm) is not Algorithm.VIEWJOIN:
            outcome = self._evaluate_one(query, mode, emit_matches,
                                         as_of=as_of)
            self._advisor_observe((outcome,))
            return self._quantum_from_outcome(outcome, preemptible=False)
        self._materialize_plan(plan, catalog)
        begin = time.perf_counter()
        try:
            result, state = engine_evaluate_quantum(
                plan.query, catalog, plan.all_views, plan.algorithm,
                plan.scheme, mode=mode, emit_matches=emit_matches,
                budget=budget, as_of=as_of,
            )
        except StoreCorrupt as exc:
            return self._degraded_quantum(
                plan, mode, emit_matches, exc, begin, catalog=catalog
            )
        self._quanta_served += 1
        outcome = QuantumOutcome(
            query=canonical,
            combo=combo_label(plan.algorithm, plan.scheme),
            page=[tuple(e.start for e in m) for m in result.matches],
            match_count=result.match_count,
            counters=result.counters,
            io=result.io,
            elapsed_s=time.perf_counter() - begin,
            done=state is None,
            plan_views=[view.to_xpath() for view in plan.all_views],
        )
        if state is None:
            for name in self._plan_view_names(plan):
                self.breaker.record_success(name)
            return outcome
        sid = self._new_continuation(catalog.generation)
        outcome.preempted = True
        outcome.token = encode_token(self._continuation_payload(
            plan, mode, emit_matches, budget, sid, state, quanta=1,
            io=result.io, catalog=catalog,
        ))
        return outcome

    def resume_quantum(self, token: str) -> QuantumOutcome:
        """Resume a suspended query for one more quantum.

        Raises:
            ContinuationMalformed: the token bytes or payload are damaged
                (truncated, bit-flipped, tampered) — typed, never a crash.
            ContinuationExpired: the token is intact but dead — its
                pinned generation has been garbage-collected, its
                session died with a quarantine-era GC, advisor drop or
                shutdown, or it was issued by another service instance.
                A maintenance commit alone no longer expires tokens: the
                chain resumes against its generation's pinned snapshot.
        """
        payload = decode_token(token)
        parts = self._continuation_parts(payload)
        sid = parts["sid"]
        if sid not in self._continuations:
            self._continuations_expired += 1
            raise ContinuationExpired(
                f"continuation {sid!r} is not live on this service"
                " (its generation was garbage-collected, or it expired"
                " with a quarantine, advisor drop, or shutdown — or was"
                " issued by another service instance)"
            )
        generation = parts["generation"]
        try:
            catalog, planner = self._resolve_read(generation)
        except ServiceError:
            self._continuations.pop(sid, None)
            self._continuations_expired += 1
            raise ContinuationExpired(
                f"continuation's pinned store generation {generation}"
                " has been garbage-collected (re-issue the query"
                " against the current generation)"
            ) from None
        if (
            parts["maintenance_epoch"] != catalog.maintenance_epoch
            or parts["store_version"] != catalog.store_version
        ):
            self._continuations.pop(sid, None)
            self._continuations_expired += 1
            self._release_generation(generation)
            raise ContinuationExpired(
                "continuation's epoch stamps do not match its pinned"
                " generation (issued by another service instance?)"
            )
        views = parts["views"]
        for view in views:
            try:
                catalog.get(view, parts["scheme"])
            except StorageError:
                self._continuations.pop(sid, None)
                self._continuations_expired += 1
                self._release_generation(generation)
                raise ContinuationExpired(
                    f"planned view {view.to_xpath()!r} is no longer"
                    " materialized (quarantined or dropped)"
                ) from None
        begin = time.perf_counter()
        try:
            result, state = engine_evaluate_quantum(
                parts["query"], catalog, views, Algorithm.VIEWJOIN,
                parts["scheme"], mode=parts["mode"],
                emit_matches=parts["emit"], budget=parts["budget"],
                state=parts["state"], as_of=generation,
            )
        except StoreCorrupt as exc:
            self._continuations.pop(sid, None)
            plan = planner.plan(parts["query"])
            outcome = self._degraded_quantum(
                plan, parts["mode"], parts["emit"], exc, begin,
                quanta=parts["quanta"] + 1, catalog=catalog,
            )
            self._release_generation(generation)
            return outcome
        self._quanta_served += 1
        quanta = parts["quanta"] + 1
        prior = parts["io"]
        io = IOStats(
            logical_reads=result.io.logical_reads + prior[0],
            physical_reads=result.io.physical_reads + prior[1],
            pages_written=result.io.pages_written + prior[2],
            read_seconds=result.io.read_seconds,
            write_seconds=result.io.write_seconds,
        )
        outcome = QuantumOutcome(
            query=parts["query"].to_xpath(),
            combo=combo_label(Algorithm.VIEWJOIN, parts["scheme"]),
            page=[tuple(e.start for e in m) for m in result.matches],
            match_count=result.match_count,
            counters=result.counters,
            io=io,
            elapsed_s=time.perf_counter() - begin,
            done=state is None,
            quanta=quanta,
            plan_views=[view.to_xpath() for view in views],
        )
        if state is None:
            self._continuations.pop(sid, None)
            self._continuations_completed += 1
            self._release_generation(generation)
            return outcome
        record = self._continuations[sid]
        record["quanta"] = quanta
        next_payload = dict(payload)
        next_payload["quanta"] = quanta
        next_payload["io"] = [
            io.logical_reads, io.physical_reads, io.pages_written,
        ]
        next_payload["state"] = state.to_payload()
        outcome.preempted = True
        outcome.token = encode_token(next_payload)
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
        self._continuations[sid] = {"quanta": 1, "generation": generation}
        self._continuations_issued += 1
        return sid

    def _expire_continuations(self) -> int:
        """Invalidate every live continuation (shutdown only); stale
        tokens resume as typed :class:`ContinuationExpired` instead of
        touching recycled state.  Returns how many were dropped."""
        dropped = len(self._continuations)
        if dropped:
            self._continuations.clear()
            self._continuations_purged += dropped
        return dropped

    def _expire_reaped_sessions(self) -> int:
        """Drop only the sessions whose pinned generation is no longer
        resolvable — neither the live generation nor a held snapshot.
        Sessions on resolvable generations survive pool respawns and
        maintenance commits untouched (their state is in-process)."""
        live = {self.catalog.generation} | set(self._generation_snapshots)
        stale = [
            sid for sid, record in self._continuations.items()
            if record.get("generation") not in live
        ]
        for sid in stale:
            del self._continuations[sid]
        self._continuations_purged += len(stale)
        return len(stale)

    def _continuation_payload(
        self,
        plan: Plan,
        mode: Mode,
        emit_matches: bool,
        budget: QuantumBudget | None,
        sid: str,
        state: PlanState,
        quanta: int,
        io: IOStats,
        catalog: ViewCatalog,
    ) -> dict:
        return {
            "sid": sid,
            "generation": catalog.generation,
            "store_version": catalog.store_version,
            "maintenance_epoch": catalog.maintenance_epoch,
            "query": plan.query.to_xpath(),
            "views": [
                [view.to_xpath(), view.name] for view in plan.all_views
            ],
            "algorithm": Algorithm.parse(plan.algorithm).value,
            "scheme": Scheme.parse(plan.scheme).value,
            "mode": mode.value,
            "emit": emit_matches,
            "budget": budget.as_dict() if budget is not None else None,
            "quanta": quanta,
            "io": [io.logical_reads, io.physical_reads, io.pages_written],
            "state": state.to_payload(),
        }

    def _continuation_parts(self, payload: dict) -> dict:
        """Validate a decoded token payload, field by field.

        A payload that passed the codec's checksum can still be hostile
        (re-encoded with a fresh checksum); every structural assumption
        is checked here so a bad token dies typed at the boundary, not
        as an ``AttributeError`` inside a cursor.
        """
        def bad(message: str) -> None:
            raise ContinuationMalformed(
                f"continuation payload is invalid: {message}"
            )

        sid = payload.get("sid")
        if not isinstance(sid, str) or not sid:
            bad("missing session id")
        for key in (
            "generation", "store_version", "maintenance_epoch", "quanta"
        ):
            if not isinstance(payload.get(key), int):
                bad(f"{key} must be an int")
        if payload["quanta"] < 1:
            bad("quanta must be positive")
        if payload.get("algorithm") != Algorithm.VIEWJOIN.value:
            bad("only ViewJoin plans are resumable")
        if not isinstance(payload.get("emit"), bool):
            bad("emit must be a bool")
        if not isinstance(payload.get("query"), str):
            bad("query must be a string")
        if not isinstance(payload.get("scheme"), str):
            bad("scheme must be a string")
        if not isinstance(payload.get("mode"), str):
            bad("mode must be a string")
        views_payload = payload.get("views")
        if not isinstance(views_payload, list) or not views_payload:
            bad("views must be a non-empty list")
        for item in views_payload:
            if (
                not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str)
                or not (item[1] is None or isinstance(item[1], str))
            ):
                bad("views must be [xpath, name] pairs")
        prior_io = payload.get("io")
        if (
            not isinstance(prior_io, list) or len(prior_io) != 3
            or any(
                not isinstance(value, int) or value < 0
                for value in prior_io
            )
        ):
            bad("io must be three non-negative ints")
        try:
            query = parse_pattern(payload["query"])
            views = [
                parse_pattern(xpath, name=name)
                for xpath, name in views_payload
            ]
            scheme = Scheme.parse(payload["scheme"])
            mode = Mode.parse(payload["mode"])
        except ReproError as exc:
            raise ContinuationMalformed(
                f"continuation plan is invalid: {exc}"
            ) from None
        return {
            "sid": sid,
            "generation": payload["generation"],
            "store_version": payload["store_version"],
            "maintenance_epoch": payload["maintenance_epoch"],
            "query": query,
            "views": views,
            "scheme": scheme,
            "mode": mode,
            "emit": payload["emit"],
            "budget": QuantumBudget.from_dict(payload.get("budget")),
            "state": PlanState.from_payload(payload.get("state")),
            "quanta": payload["quanta"],
            "io": prior_io,
        }

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

    def _degraded_quantum(
        self,
        plan: Plan,
        mode: Mode,
        emit_matches: bool,
        exc: StoreCorrupt,
        begin: float,
        quanta: int = 1,
        catalog: ViewCatalog | None = None,
    ) -> QuantumOutcome:
        """Store corruption mid-quantum: feed the breaker, re-answer from
        base views, and finish the chain in one degraded done quantum."""
        failure = JobFailure(
            index=0, kind="store-corrupt", message=str(exc),
            views=exc.views or tuple(self._plan_view_names(plan)),
            pages=exc.pages,
        )
        self._note_failure(plan, failure)
        outcome = self._quantum_from_outcome(
            self._evaluate_degraded(plan, mode, emit_matches, catalog),
            quanta=quanta,
        )
        outcome.elapsed_s = time.perf_counter() - begin
        return outcome

    # -- resilience -----------------------------------------------------------

    @staticmethod
    def _plan_view_names(plan: Plan) -> list[str]:
        return [view.name or view.to_xpath() for view in plan.views]

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

    def _evaluate_degraded(
        self,
        plan: Plan,
        mode: Mode,
        emit_matches: bool,
        catalog: ViewCatalog | None = None,
    ) -> QueryOutcome:
        """Re-answer a failed query from base views over the base
        document — a fresh in-memory catalog, untouched by whatever
        damaged the store.  ``catalog`` picks which generation's
        document is the base truth (a pinned snapshot's for a snapshot
        read, the live one otherwise).  Fault injection is suspended for
        the rerun: the chaos harness simulates *store* failures, and
        this path is the recovery route that must stay correct."""
        if catalog is None:
            catalog = self.catalog
        self._degraded_queries += 1
        base_views = [
            self.planner._base_view(qnode) for qnode in plan.query.nodes
        ]
        job = EvalJob.from_patterns(
            0, plan.query, base_views, plan.algorithm, plan.scheme,
            mode=mode, emit_matches=emit_matches,
        )
        fallback = ViewCatalog(
            catalog.document,
            partial_distance=catalog.partial_distance,
        )
        try:
            with faults.suspended():
                result = run_job(fallback, job, expect_warm=False)
        finally:
            fallback.close()
        outcome = self._outcome_from(result, plan)
        outcome.plan_views = [view.to_xpath() for view in base_views]
        outcome.degraded = True
        return outcome

    @staticmethod
    def _error_outcome(plan: Plan, failure: JobFailure) -> QueryOutcome:
        return QueryOutcome(
            query=plan.query.to_xpath(),
            combo=combo_label(plan.algorithm, plan.scheme),
            match_keys=[],
            match_count=0,
            counters=Counters(),
            io=IOStats(),
            elapsed_s=0.0,
            error=f"{failure.kind}: {failure.message}",
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

    @staticmethod
    def _refuted_outcome(plan: Plan, canonical: str) -> QueryOutcome:
        return QueryOutcome(
            query=canonical,
            combo=combo_label(plan.algorithm, plan.scheme),
            match_keys=[],
            match_count=0,
            counters=Counters(),
            io=IOStats(),
            elapsed_s=0.0,
            refuted=True,
        )

    def _assemble(
        self, outcomes: Sequence[QueryOutcome], elapsed: float
    ) -> BatchResult:
        counters = Counters()
        io = IOStats()
        for outcome in outcomes:
            counters.merge(outcome.counters)
            io.merge(outcome.io)
        # Batch chokepoint of the workload recorder: every batch/parallel
        # outcome passes through here exactly once (``evaluate`` records
        # its own), outside the per-job loops.
        self._advisor_observe(outcomes)
        return BatchResult(
            outcomes=list(outcomes),
            counters=counters,
            io=io,
            elapsed_s=elapsed,
        )

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
        self._expire_continuations()
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
