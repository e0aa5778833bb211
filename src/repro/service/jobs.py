"""The picklable unit of work shared by sequential and parallel paths.

An :class:`EvalJob` carries everything one evaluation needs as plain
strings and ints — query/view xpaths, engine combo, mode — so it crosses
a process boundary without dragging documents or views along; workers
rebuild patterns from text and read views from their own attached store.

:func:`run_job` is the single execution primitive: it evaluates the job
**cold**, dropping the buffer pool before every repeat.  Cold-per-job is
the contract that makes parallel evaluation deterministic: the I/O
statistics of a job become a pure function of the job itself (page
layout and pool capacity being equal), independent of which process runs
it or what ran before it — so a fan-out over N workers merges to
byte-identical counters as a sequential pass over the same jobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.algorithms.base import KEYS, Counters, Mode
from repro.algorithms.engine import Algorithm, combo_label, evaluate
from repro.errors import ServiceError, StorageError, StoreCorrupt
from repro.storage.catalog import Scheme, ViewCatalog
from repro.storage.pager import IOStats
from repro.tpq.parser import parse_pattern
from repro.tpq.pattern import Pattern


@dataclass(frozen=True)
class EvalJob:
    """One (query × views × engine combo × mode) evaluation request."""

    index: int
    query: str
    views: tuple[tuple[str, str | None], ...]
    algorithm: str
    scheme: str
    mode: str = "memory"
    emit_matches: bool = True
    repeats: int = 1
    query_name: str | None = None
    #: MVCC pin (DESIGN.md §16): the store generation this job must be
    #: answered from.  ``None`` means "whatever the executing catalog
    #: holds" (the pre-MVCC behaviour).  Workers use it to pick which
    #: generation to attach; :func:`run_job` passes it to the engine as
    #: ``as_of`` so a mismatched catalog fails typed instead of
    #: answering from the wrong snapshot.
    generation: int | None = None

    @classmethod
    def from_patterns(
        cls,
        index: int,
        query: Pattern | str,
        views: Sequence[Pattern],
        algorithm: Algorithm | str,
        scheme: Scheme | str,
        mode: Mode | str = Mode.MEMORY,
        emit_matches: bool = True,
        repeats: int = 1,
        query_name: str | None = None,
        generation: int | None = None,
    ) -> "EvalJob":
        if isinstance(query, str):
            query_text = query
        else:
            query_text = query.to_xpath()
            query_name = query_name or query.name
        return cls(
            index=index,
            query=query_text,
            query_name=query_name,
            views=tuple((view.to_xpath(), view.name) for view in views),
            algorithm=Algorithm.parse(algorithm).value,
            scheme=Scheme.parse(scheme).value,
            mode=Mode.parse(mode).value,
            emit_matches=emit_matches,
            repeats=repeats,
            generation=generation,
        )

    @property
    def combo(self) -> str:
        return combo_label(self.algorithm, self.scheme)

    @property
    def view_names(self) -> tuple[str, ...]:
        """Catalog names of the views this job reads."""
        return tuple(name or xpath for xpath, name in self.views)

    def patterns(self) -> tuple[Pattern, list[Pattern]]:
        """Rebuild the query and view patterns from their canonical text."""
        query = parse_pattern(self.query, name=self.query_name)
        views = [
            parse_pattern(xpath, name=name) for xpath, name in self.views
        ]
        return query, views


@dataclass
class JobResult:
    """What a worker ships back: match keys plus the per-run accounting."""

    index: int
    combo: str
    match_keys: list[tuple[int, ...]]
    match_count: int
    counters: Counters
    io: IOStats
    elapsed_s: float
    output_seconds: float = 0.0
    peak_buffer_entries: int = 0
    peak_buffer_bytes: int = 0


@dataclass(frozen=True)
class JobFailure:
    """A job that produced a typed failure instead of a result.

    Plain picklable data, like :class:`EvalJob`: workers ship failures
    back in the same list as results, so one corrupt view never poisons
    the whole stripe.  ``kind`` is the circuit-breaker taxonomy:
    ``store-corrupt`` (integrity — quarantines immediately),
    ``worker-lost`` / ``timeout`` / ``error`` (operational — quarantine
    at the breaker threshold).
    """

    index: int
    kind: str
    message: str
    #: view names the failing job was reading (breaker attribution).
    views: tuple[str, ...] = ()
    #: page ids implicated by a checksum failure, when known.
    pages: tuple[int, ...] = ()

    @classmethod
    def from_corrupt(
        cls, exc: StoreCorrupt, job: EvalJob | None = None
    ) -> "JobFailure":
        """The one place a checksum failure becomes a typed job failure;
        ``job`` attributes it when the exception names no views itself."""
        return cls(
            index=job.index if job is not None else 0,
            kind="store-corrupt",
            message=str(exc),
            views=exc.views or (job.view_names if job is not None else ()),
            pages=exc.pages,
        )


def run_job(
    catalog: ViewCatalog, job: EvalJob, expect_warm: bool = False
) -> JobResult:
    """Evaluate ``job`` against ``catalog`` with a cold buffer pool.

    With ``repeats > 1`` the evaluation runs that many times and
    ``elapsed_s`` is the median (counters and I/O are deterministic per
    repeat, so the last run's are kept).

    Args:
        catalog: the view catalog (in-memory or attached from a store).
        job: what to evaluate.
        expect_warm: promise that every view the job needs is already
            materialized.  Violations raise :class:`ServiceError`
            *before* any evaluation — in a worker attached read-only to
            a shared store, materializing would write pages into the
            store file, so the guard must fire first.
    """
    query, views = job.patterns()
    if expect_warm:
        missing = []
        for view in views:
            try:
                catalog.get(view, job.scheme)
            except StorageError:
                missing.append(view.to_xpath())
        if missing:
            raise ServiceError(
                f"job {job.index} ({job.combo}) needs views that were not"
                f" warmed up: {missing}; materialize them before the timed"
                " region (QueryService.warmup / warmup_jobs)"
            )
    pool = catalog.pager.pool
    materializations_before = catalog.materializations
    timings: list[float] = []
    result = None
    for __ in range(max(job.repeats, 1)):
        pool.clear()
        begin = time.perf_counter()
        result = evaluate(
            query, catalog, views, job.algorithm, job.scheme,
            mode=job.mode, emit_matches=KEYS if job.emit_matches else False,
            as_of=job.generation,
        )
        timings.append(time.perf_counter() - begin)
    assert result is not None
    if expect_warm and catalog.materializations != materializations_before:
        raise ServiceError(
            f"job {job.index} ({job.combo}) materialized views inside the"
            " timed region despite a warm-up promise"
        )
    timings.sort()
    return JobResult(
        index=job.index,
        combo=job.combo,
        match_keys=result.match_keys(),
        match_count=result.match_count,
        counters=result.counters,
        io=result.io,
        elapsed_s=timings[len(timings) // 2],
        output_seconds=result.output_seconds,
        peak_buffer_entries=result.peak_buffer_entries,
        peak_buffer_bytes=result.peak_buffer_bytes,
    )


def merge_results(
    results: Sequence[JobResult],
) -> tuple[Counters, IOStats]:
    """Fold per-job counters/I/O in job-index order (the deterministic
    merge contract: same jobs → same aggregate, however they were
    scheduled)."""
    counters = Counters()
    io = IOStats()
    for result in sorted(results, key=lambda r: r.index):
        counters.merge(result.counters)
        io.merge(result.io)
    return counters, io
