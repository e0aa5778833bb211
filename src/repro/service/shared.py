"""Plan-level common-subexpression elimination for batched queries.

A batch read (``QueryService.evaluate_batch`` / ``evaluate_parallel``)
canonicalizes every query into an **eval node** — the full identity of
one engine run: canonical query text, the exact view list (order
included), engine combo, mode and emit flag.  Nodes are hash-consed
across the batch, each distinct node is executed exactly once, and its
match stream plus recorded work/I-O counters fan out to every consumer
query.  This is the one step a batch adds to the service's read
pipeline (:mod:`repro.service.core`); single reads skip it.

Replay accounting
-----------------
The determinism contract (:mod:`repro.service.jobs`) makes a job's
counters and I/O a pure function of the job itself, so a duplicate's
independent evaluation would have produced byte-identical accounting to
the first's.  Fan-out therefore *replays* the recorded counters to every
consumer — per-query outcomes and the merged batch totals stay
byte-identical to a loop of ``evaluate`` over the same queries (which is
how the differential tests pin the equivalence) — while
:class:`SharedStats` separately records the work actually executed,
which is what the benchmark's amortized-speedup numbers report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.algorithms.base import Counters, Mode
from repro.planner import Plan
from repro.service.jobs import JobResult
from repro.storage.pager import IOStats


def node_key(plan: Plan, mode: Mode, emit_matches: bool) -> tuple:
    """Canonical identity of one eval node.

    Everything that influences an engine run's output *and accounting*
    is part of the key: the canonical query, the exact view list in plan
    order (view order drives cursor construction and page layout), the
    engine combo, the output mode and the emit flag.  Two queries whose
    plans agree on all of these produce byte-identical results and
    counters, so they may share one execution.
    """
    algorithm = getattr(plan.algorithm, "value", plan.algorithm)
    scheme = getattr(plan.scheme, "value", plan.scheme)
    return (
        plan.query.to_xpath(),
        tuple((view.to_xpath(), view.name) for view in plan.all_views),
        str(algorithm),
        str(scheme),
        mode.value,
        bool(emit_matches),
    )


def node_digest(key: tuple) -> str:
    """Stable hex digest of a node key (the stream cache's "node hash")."""
    return hashlib.sha1(repr(key).encode("utf-8")).hexdigest()


@dataclass
class SharedNode:
    """One distinct eval node within a batch plus its consumer queries."""

    digest: str
    plan: Plan
    #: batch positions answered by this node, in input order.
    consumers: list[int]
    #: filled when the stream cache already held this node's stream.
    replayed: JobResult | None = None

    @property
    def first(self) -> int:
        return self.consumers[0]


@dataclass
class SharedStats:
    """Actual work executed by batch reads (monotone per service).

    ``executed`` / ``executed_io`` aggregate only the runs that really
    happened; the difference against the batch's merged (replayed)
    counters is the work the CSE layer saved.
    """

    batches: int = 0
    queries: int = 0
    distinct_nodes: int = 0
    jobs_run: int = 0
    stream_hits: int = 0
    #: consumer queries answered by replaying another run's stream.
    replayed_queries: int = 0
    executed: Counters = field(default_factory=Counters)
    executed_io: IOStats = field(default_factory=IOStats)

    def as_dict(self) -> dict[str, object]:
        return {
            "batches": self.batches,
            "queries": self.queries,
            "distinct_nodes": self.distinct_nodes,
            "jobs_run": self.jobs_run,
            "stream_hits": self.stream_hits,
            "replayed_queries": self.replayed_queries,
            "executed_work": self.executed.work,
            "executed_elements_scanned": self.executed.elements_scanned,
            "executed_logical_reads": self.executed_io.logical_reads,
            "executed_physical_reads": self.executed_io.physical_reads,
        }
