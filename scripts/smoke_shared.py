"""CI smoke: the shared-scan batch executor every run.

Builds a tiny catalog, answers a duplicate-heavy batch as one batch read
— in-process and at ``workers=2`` — and as the independent reference, a
loop of ``evaluate()`` on a fresh service, and asserts the byte-identity
contract: match keys, per-query work counters, the integer I/O
statistics and the merged totals must all be equal, while the batch
dispatches strictly fewer jobs than there are queries.
"""

from __future__ import annotations

import sys


def outcome_key(outcome):
    return (
        outcome.query,
        outcome.match_keys,
        outcome.counters,
        (
            outcome.io.logical_reads, outcome.io.physical_reads,
            outcome.io.pages_written,
        ),
        outcome.cached,
        outcome.refuted,
    )


def main() -> int:
    from repro.algorithms.base import Counters
    from repro.datasets import random_trees
    from repro.service import QueryService
    from repro.storage.catalog import ViewCatalog
    from repro.storage.pager import IOStats
    from repro.workloads import repeated_batch

    doc = random_trees.generate(size=250, max_depth=8, seed=3)
    workload = repeated_batch(10, overlap=0.6, seed=4)
    assert len(workload.distinct()) < len(workload.queries)

    def io_key(io):
        return (io.logical_reads, io.physical_reads, io.pages_written)

    def run(workers):
        """``workers=None``: the loop-of-evaluate reference."""
        with ViewCatalog(doc) as catalog:
            with QueryService(catalog) as service:
                for view in workload.views:
                    service.register(view)
                if workers is None:
                    outcomes = [
                        service.evaluate(query) for query in workload.queries
                    ]
                    counters, io = Counters(), IOStats()
                    for outcome in outcomes:
                        counters.merge(outcome.counters)
                        io.merge(outcome.io)
                else:
                    if workers:
                        batch = service.evaluate_parallel(
                            workload.queries, workers=workers
                        )
                    else:
                        batch = service.evaluate_batch(workload.queries)
                    outcomes, counters, io = (
                        batch.outcomes, batch.counters, batch.io
                    )
                jobs = service.shared_metrics()["jobs_run"]
        return outcomes, counters, io_key(io), jobs

    slow, slow_counters, slow_io, none_run = run(None)
    assert none_run == 0, "single reads must not touch shared stats"
    for workers in (0, 2):
        fast, fast_counters, fast_io, jobs = run(workers)
        assert jobs == len(workload.distinct()) < len(workload.queries)
        for a, b in zip(fast, slow):
            assert outcome_key(a) == outcome_key(b), a.query
        assert fast_counters == slow_counters
        assert fast_io == slow_io
    print(
        "shared smoke ok:"
        f" {len(workload.queries)} queries"
        f" ({len(workload.distinct())} distinct, {jobs} jobs),"
        " batch == loop of evaluate() byte-identical at workers=0 and 2"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
