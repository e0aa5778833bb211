"""CI smoke: the online adaptive view advisor every run.

Records a canned repeated-structure workload through an
:class:`OnlineAdvisor` over a plain service, runs one advisor cycle, and
asserts the adoption contract:

* at least one view was adopted and the measured storage stays under the
  configured budget;
* the post-adoption batch answers **byte-identically** (match keys, match
  counts, cached/refuted flags) to the pre-adoption truth;
* the adopted views **strictly reduce** the measured work and logical
  reads of the workload (the whole point of adopting them);
* the recorded log replays deterministically: a serialize/load round
  trip of it (the offline ``advise --from-log`` path) plans the
  identical decision sequence as the live log.
"""

from __future__ import annotations

import sys


def result_key(batch):
    return [
        (o.query, o.match_keys, o.match_count, o.refuted)
        for o in batch.outcomes
    ]


def main() -> int:
    from repro.datasets import random_trees
    from repro.selection.estimates import (
        CalibratedStatistics,
        DocumentStatistics,
    )
    from repro.selection.online import (
        OnlineAdvisor,
        WorkloadLog,
        plan_adoption,
    )
    from repro.service import QueryService
    from repro.storage.catalog import ViewCatalog
    from repro.workloads import repeated_batch

    doc = random_trees.generate(size=400, tags="abcd", max_depth=8, seed=11)
    workload = repeated_batch(30, overlap=0.6, seed=5)
    budget = 150_000.0

    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as service:
            advisor = OnlineAdvisor(service, budget_bytes=budget)
            before = service.evaluate_batch(workload.queries)
            advisor.record(before.outcomes)
            plan = advisor.cycle()
            assert plan.adopt, "canned workload must adopt at least one view"

            metrics = advisor.metrics()
            assert metrics["cycles"] == 1
            assert metrics["adopted_bytes"] <= budget, (
                metrics["adopted_bytes"], budget,
            )

            after = service.evaluate_batch(workload.queries)
            assert result_key(before) == result_key(after), (
                "adopted views changed answers"
            )
            assert after.counters.work < before.counters.work, (
                "adoption must strictly reduce measured work:"
                f" {before.counters.work} -> {after.counters.work}"
            )
            assert after.io.logical_reads < before.io.logical_reads, (
                "adoption must strictly reduce logical reads:"
                f" {before.io.logical_reads} -> {after.io.logical_reads}"
            )

    # Determinism: the saved log replays to the live log's plan.
    log = advisor.log
    replayed = WorkloadLog.loads(log.dumps())
    stats = DocumentStatistics.collect(doc)
    live, offline = (
        plan_adoption(
            each, CalibratedStatistics.from_log(stats, each),
            budget_bytes=budget,
        )
        for each in (log, replayed)
    )
    assert [d.as_dict() for d in live.decisions] == [
        d.as_dict() for d in offline.decisions
    ], "a saved log must replay to the live log's decisions"

    print(
        "advisor smoke ok:"
        f" {len(plan.adopt)} view(s) adopted under"
        f" {int(metrics['adopted_bytes'])}/{int(budget)} bytes,"
        f" work {before.counters.work} -> {after.counters.work},"
        f" logical reads {before.io.logical_reads} ->"
        f" {after.io.logical_reads}, byte-identical answers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
