"""Online adaptive view advisor tests (DESIGN.md §14).

Covers the measured-cost calibration layer (``CalibratedStatistics``
answering exactly for harvested views, estimate fallback otherwise),
the workload log contract (recording, decay, JSON round-trip, logs in
the older telemetry-carrying format), the budgeted adoption controller
(adopt/keep/drop churn under a drifting workload, determinism for a
fixed log), and :class:`OnlineAdvisor` driving a service from outside
(cache/planner coherence on adopt and drop, parallel equality, recording
a finished continuation chain).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.algorithms.preempt import QuantumBudget
from repro.datasets import random_trees
from repro.errors import SelectionError
from repro.selection.estimates import (
    CalibratedStatistics,
    DocumentStatistics,
    ExactSizes,
    catalog_list_sizes,
)
from repro.selection.online import (
    ADVISOR_PREFIX,
    AdoptedView,
    OnlineAdvisor,
    WorkloadLog,
    advisor_view_name,
    plan_adoption,
    rebalance_to_budget,
)
from repro.service import QueryService
from repro.storage.catalog import ViewCatalog
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern
from repro.workloads import drifting_batches, repeated_batch


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(size=300, tags="abcd", max_depth=8, seed=11)


@pytest.fixture(scope="module")
def stats(doc):
    return DocumentStatistics.collect(doc)


def truth_keys(doc, query):
    return sorted(
        tuple(n.start for n in m)
        for m in find_embeddings(doc, parse_pattern(query))
    )


# -- calibration ---------------------------------------------------------------


def test_calibration_matches_ground_truth_for_harvested_views(doc, stats):
    """For every harvested view, ``list_size`` is the exact ``|L_q|``."""
    exact = ExactSizes(doc)
    with ViewCatalog(doc) as catalog:
        for xpath in ("//a//b", "//b//c", "//a[//b]//c"):
            catalog.add(parse_pattern(xpath), "element")
        calibration = CalibratedStatistics.from_catalog(catalog, stats)
        harvested = catalog_list_sizes(catalog)
        assert len(harvested) == 3
        for xpath in harvested:
            view = parse_pattern(xpath)
            for tag in view.tags():
                assert calibration.list_size(view, tag) == exact.list_size(
                    view, tag
                )


def test_calibration_falls_back_for_unseen(doc, stats):
    """Measured first; whichever fallback source was passed answers for
    never-materialized patterns and for tags the measurement lacks."""
    with ViewCatalog(doc) as catalog:
        catalog.add(parse_pattern("//a//b"), "element")
        calibration = CalibratedStatistics.from_catalog(catalog, stats)
    unseen = parse_pattern("//c//d")
    assert calibration.list_size(unseen, "d") == stats.list_size(unseen, "d")
    exact = ExactSizes(doc)
    assert CalibratedStatistics(exact).list_size(
        unseen, "d"
    ) == exact.list_size(unseen, "d")
    over_exact = CalibratedStatistics(exact, {"//c//d": {"c": 7}})
    assert over_exact.list_size(unseen, "c") == 7.0
    assert over_exact.list_size(unseen, "d") == exact.list_size(unseen, "d")


# -- workload log --------------------------------------------------------------


def outcome_stub(query, *, refuted=False, error=""):
    """The three fields :meth:`WorkloadLog.record` reads."""
    return SimpleNamespace(query=query, refuted=refuted, error=error)


def test_log_records_and_aggregates():
    log = WorkloadLog()
    log.record(outcome_stub("//a//b"))
    log.record(outcome_stub("//a//b"))
    log.record(outcome_stub("//c"))
    assert len(log) == 2
    assert log.recorded == 3
    assert log.get("//a//b").weight == 2.0
    assert [o.query for o in log.observations()] == ["//a//b", "//c"]


def test_log_refuted_and_error_carry_no_weight():
    log = WorkloadLog()
    log.record(outcome_stub("//a//x", refuted=True))
    log.record(outcome_stub("//a//y", error="boom"))
    assert log.recorded == 2
    assert log.get("//a//x").weight == 0.0
    assert log.get("//a//y").weight == 0.0


def test_log_decay_prunes_stale_demand():
    log = WorkloadLog()
    for _ in range(4):
        log.record(outcome_stub("//a//b"))
    log.record(outcome_stub("//c"))
    assert log.decay(0.5, floor=0.75) == 1  # //c: 1.0 -> 0.5, pruned
    assert log.get("//c") is None
    assert log.get("//a//b").weight == 2.0
    with pytest.raises(SelectionError):
        log.decay(1.5)


def test_log_json_round_trip():
    log = WorkloadLog()
    log.record(outcome_stub("//a//b"))
    log.record(outcome_stub("//c", refuted=True))
    log.view_cardinalities["//a//b"] = {"a": 40, "b": 55}
    clone = WorkloadLog.loads(log.dumps())
    assert clone.as_dict() == log.as_dict()
    assert clone.view_cardinalities == {"//a//b": {"a": 40, "b": 55}}
    assert [o.as_dict() for o in clone.observations()] == [
        o.as_dict() for o in log.observations()
    ]


def test_log_load_rejects_malformed():
    with pytest.raises(SelectionError):
        WorkloadLog.loads("not json")
    with pytest.raises(SelectionError):
        WorkloadLog.loads("[1, 2]")


def test_log_save_load_file(tmp_path):
    log = WorkloadLog()
    log.record(outcome_stub("//a//b"))
    path = tmp_path / "workload.json"
    log.save(path)
    assert WorkloadLog.load(path).as_dict() == log.as_dict()


# -- adoption controller -------------------------------------------------------


def demand_log(doc, queries, repeats=4):
    """Record ``queries`` against a plain service to get real outcomes."""
    log = WorkloadLog()
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog, result_cache_size=0) as service:
            for _ in range(repeats):
                for query in queries:
                    log.record(service.evaluate(query))
    return log


def test_plan_adoption_is_deterministic(doc, stats):
    log = demand_log(doc, ["//a//b//c", "//a//b", "//b//c"])
    calibration = CalibratedStatistics(stats)
    one = plan_adoption(log, calibration, budget_bytes=200_000.0)
    two = plan_adoption(log, calibration, budget_bytes=200_000.0)
    assert [d.as_dict() for d in one.decisions] == [
        d.as_dict() for d in two.decisions
    ]
    assert [p.to_xpath() for p in one.adopt] == [
        p.to_xpath() for p in two.adopt
    ]
    # And survives a serialize/replay round trip (the offline CLI path).
    replayed = WorkloadLog.loads(log.dumps())
    three = plan_adoption(replayed, calibration, budget_bytes=200_000.0)
    assert [d.as_dict() for d in three.decisions] == [
        d.as_dict() for d in one.decisions
    ]


def test_plan_adoption_respects_budget(doc, stats):
    log = demand_log(doc, ["//a//b//c", "//a//b", "//b//c", "//a//c"])
    calibration = CalibratedStatistics(stats)
    generous = plan_adoption(log, calibration, budget_bytes=1e9)
    tight = plan_adoption(log, calibration, budget_bytes=2_000.0)
    assert generous.adopt
    assert tight.projected_bytes <= 2_000.0
    assert len(tight.adopt) <= len(generous.adopt)


def test_plan_adoption_drops_decayed_views(doc, stats):
    """An adopted view whose demand stopped arriving gets dropped."""
    log = demand_log(doc, ["//a//b//c"])
    calibration = CalibratedStatistics(stats)
    first = plan_adoption(log, calibration, budget_bytes=200_000.0)
    assert first.adopt
    adopted = {p.to_xpath(): 1_000.0 for p in first.adopt}
    # Demand vanishes entirely: every adopted view must be dropped.
    empty = WorkloadLog()
    plan = plan_adoption(
        empty, calibration, budget_bytes=200_000.0, adopted=adopted
    )
    assert sorted(plan.drop) == sorted(adopted)
    assert not plan.adopt


def test_plan_adoption_excludes_user_views(doc, stats):
    log = demand_log(doc, ["//a//b//c", "//a//b"])
    calibration = CalibratedStatistics(stats)
    baseline = plan_adoption(log, calibration, budget_bytes=200_000.0)
    assert baseline.adopt
    protected = {p.to_xpath() for p in baseline.adopt}
    plan = plan_adoption(
        log, calibration, budget_bytes=200_000.0, existing=protected
    )
    assert not protected & {p.to_xpath() for p in plan.adopt}
    assert not set(plan.drop)  # user views are never dropped


def test_once_refuted_pattern_can_still_earn_a_view(stats):
    """``refuted`` is a lifetime count: one refuted arrival (before an
    update made the pattern satisfiable) must not bar it forever —
    refuted arrivals add no weight, answered ones do."""
    log = WorkloadLog()
    log.record(outcome_stub("//a//b//c", refuted=True))
    calibration = CalibratedStatistics(stats)
    assert not plan_adoption(log, calibration, budget_bytes=1e9).adopt
    for _ in range(8):
        log.record(outcome_stub("//a//b//c"))
    assert log.get("//a//b//c").weight == 8.0
    assert plan_adoption(log, calibration, budget_bytes=1e9).adopt


def test_hot_query_earns_exact_view(doc, stats):
    """Specialization: a measured-hot twig displaces the small shared
    view the static density order admits first and gets its own exact
    view; the unweighted offline advisor keeps the shared set."""
    hot = "//a[//b]//c"
    log = WorkloadLog()
    for _ in range(25):
        log.record(outcome_stub(hot))
    log.record(outcome_stub("//a//c"))
    calibration = CalibratedStatistics(stats)
    plan = plan_adoption(log, calibration, budget_bytes=1e9)
    assert hot in {p.to_xpath() for p in plan.adopt}


def test_rebalance_to_budget_evicts_lowest_density_first():
    adopted = {
        "//a//b": AdoptedView(
            name=advisor_view_name("//a//b"), xpath="//a//b",
            bytes=600.0, benefit=6_000.0, cycle=1,
        ),
        "//b//c": AdoptedView(
            name=advisor_view_name("//b//c"), xpath="//b//c",
            bytes=500.0, benefit=50.0, cycle=1,
        ),
        "//c//d": AdoptedView(
            name=advisor_view_name("//c//d"), xpath="//c//d",
            bytes=400.0, benefit=2_000.0, cycle=1,
        ),
    }
    assert rebalance_to_budget(adopted, 2_000.0) == []
    assert rebalance_to_budget(adopted, 1_100.0) == ["//b//c"]
    assert rebalance_to_budget(adopted, 600.0) == ["//b//c", "//c//d"]


# -- logs written before the log kept only demand weights ---------------------

#: ``WorkloadLog.as_dict()`` of ``OLD_STREAM`` as the build that also
#: recorded per-pattern telemetry wrote it: fifteen keys per observation.
OLD_FORMAT_LOG = {
    "recorded": 12,
    "queries": [
        {"query": "//a//b//c", "count": 5, "weight": 5.0, "work": 3500,
         "elements_scanned": 1750, "logical_reads": 700,
         "physical_reads": 0, "matches": 15, "elapsed_s": 0.0,
         "cache_hits": 0, "shared_replays": 0, "refuted": 0,
         "degraded": 0, "errors": 0, "plan_views": ["//a//b"]},
        {"query": "//b//c", "count": 3, "weight": 3.0, "work": 2100,
         "elements_scanned": 1050, "logical_reads": 420,
         "physical_reads": 0, "matches": 9, "elapsed_s": 0.0,
         "cache_hits": 0, "shared_replays": 0, "refuted": 0,
         "degraded": 0, "errors": 0, "plan_views": ["//a//b"]},
        {"query": "//a//d", "count": 1, "weight": 0.0, "work": 0,
         "elements_scanned": 0, "logical_reads": 0, "physical_reads": 0,
         "matches": 0, "elapsed_s": 0.0, "cache_hits": 0,
         "shared_replays": 0, "refuted": 1, "degraded": 0, "errors": 0,
         "plan_views": []},
        {"query": "//a//c", "count": 3, "weight": 2.0, "work": 1400,
         "elements_scanned": 700, "logical_reads": 280,
         "physical_reads": 0, "matches": 6, "elapsed_s": 0.0,
         "cache_hits": 0, "shared_replays": 0, "refuted": 0,
         "degraded": 0, "errors": 1, "plan_views": ["//a//b"]},
    ],
    "view_cardinalities": {"//a//b": {"a": 40, "b": 55}},
}

OLD_STREAM = (
    [outcome_stub("//a//b//c")] * 5
    + [outcome_stub("//b//c")] * 3
    + [outcome_stub("//a//d", refuted=True)]
    + [outcome_stub("//a//c")] * 2
    + [outcome_stub("//a//c", error="boom")]
)


def test_old_format_log_replays_to_the_same_plan(stats):
    old = WorkloadLog.from_dict(OLD_FORMAT_LOG)
    new = WorkloadLog()
    for outcome in OLD_STREAM:
        new.record(outcome)
    new.view_cardinalities["//a//b"] = {"a": 40, "b": 55}
    assert old.as_dict() == new.as_dict()
    plans = [
        plan_adoption(
            log, CalibratedStatistics.from_log(stats, log),
            budget_bytes=200_000.0,
        )
        for log in (old, new)
    ]
    assert plans[0].decisions
    assert [d.as_dict() for d in plans[0].decisions] == [
        d.as_dict() for d in plans[1].decisions
    ]


# -- OnlineAdvisor over a service ---------------------------------------------


def test_adoption_coherence_and_identical_answers(doc):
    """Adopting views invalidates like ``register``: planner generation
    and catalog version bump, caches empty, answers byte-identical."""
    workload = repeated_batch(24, overlap=0.6, seed=5)
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as service:
            advisor = OnlineAdvisor(service, budget_bytes=150_000.0)
            before = service.evaluate_batch(workload.queries)
            advisor.record(before.outcomes)
            generation = service.planner.generation
            version = service.catalog.version
            plan = advisor.cycle()
            assert plan.adopt
            assert service.planner.generation > generation
            assert service.catalog.version > version
            assert len(service._stream_cache) == 0
            adopted_names = {
                view["name"] for view in advisor.metrics()["adopted_views"]
            }
            assert adopted_names
            assert all(n.startswith(ADVISOR_PREFIX) for n in adopted_names)
            assert adopted_names <= set(service.catalog.view_names())
            after = service.evaluate_batch(workload.queries)
            assert [
                (o.query, o.match_keys, o.match_count, o.refuted)
                for o in before.outcomes
            ] == [
                (o.query, o.match_keys, o.match_count, o.refuted)
                for o in after.outcomes
            ]
            for outcome in after.outcomes:
                if not outcome.refuted:
                    assert outcome.match_keys == truth_keys(
                        doc, outcome.query
                    )


def test_drop_coherence(doc):
    """Dropping decayed advisor views invalidates planner + catalog and
    the next answers match fresh ground truth."""
    workload = repeated_batch(24, overlap=0.6, seed=5)
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as service:
            advisor = OnlineAdvisor(service, budget_bytes=150_000.0)
            advisor.record(service.evaluate_batch(workload.queries).outcomes)
            plan = advisor.cycle()
            assert plan.adopt
            # With no new traffic every cycle halves the demand weights
            # until no pattern clears the floor and every view is dropped.
            generation = service.planner.generation
            version = service.catalog.version
            dropped = []
            for _ in range(64):
                plan = advisor.cycle()
                dropped += plan.drop
                if not advisor.metrics()["adopted_views"]:
                    break
            assert dropped and not plan.adopt
            assert not advisor.metrics()["adopted_views"]
            assert service.planner.generation > generation
            assert service.catalog.version > version
            assert not any(
                name.startswith(ADVISOR_PREFIX)
                for name in service.catalog.view_names()
            )
            for query in workload.queries[:6]:
                outcome = service.evaluate(query)
                if not outcome.refuted:
                    assert outcome.match_keys == truth_keys(doc, query)


def test_parallel_equality_post_adoption(doc):
    workload = repeated_batch(16, overlap=0.6, seed=5)
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as service:
            advisor = OnlineAdvisor(service, budget_bytes=150_000.0)
            advisor.record(service.evaluate_batch(workload.queries).outcomes)
            assert advisor.cycle().adopt
            sequential = service.evaluate_batch(workload.queries)
            service.invalidate_results()
            parallel = service.evaluate_parallel(workload.queries, workers=2)
            assert [
                (o.query, o.match_keys, o.match_count, o.refuted)
                for o in sequential.outcomes
            ] == [
                (o.query, o.match_keys, o.match_count, o.refuted)
                for o in parallel.outcomes
            ]


def test_churn_under_drifting_workload(doc):
    """Across drifting phases the advisor adopts, stays under budget
    every cycle, and drops views whose demand stopped arriving."""
    budget = 120_000.0
    phases = drifting_batches(phases=3, per_phase=24, overlap=0.6, seed=7)
    adopted_per_phase = []
    dropped_total = 0
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as service:
            advisor = OnlineAdvisor(service, budget_bytes=budget)
            for workload in phases:
                batch = service.evaluate_batch(workload.queries)
                advisor.record(batch.outcomes)
                plan = advisor.cycle()
                dropped_total += len(plan.drop)
                metrics = advisor.metrics()
                assert metrics["adopted_bytes"] <= budget
                adopted_per_phase.append(
                    {view["xpath"] for view in metrics["adopted_views"]}
                )
            metrics = advisor.metrics()
    assert any(adopted_per_phase), "drifting phases must adopt views"
    # The phase-1 hot set is not simply carried forever: drift churns it.
    assert dropped_total > 0 or adopted_per_phase[0] != adopted_per_phase[-1]
    assert metrics["cycles"] == len(phases)
    assert metrics["recorded"] == sum(len(w.queries) for w in phases)
    assert metrics["events"], "adopt/drop events must be recorded"
    assert all("cycle" in event for event in metrics["events"])


def test_finished_quantum_chain_is_recordable(doc):
    """A ViewJoin chain answered quantum by quantum feeds the log like a
    one-shot answer: its done outcome carries the fields ``record``
    reads."""
    query = "//a//b//c"
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as service:
            advisor = OnlineAdvisor(service, budget_bytes=150_000.0)
            outcome = service.evaluate_quantum(
                query, budget=QuantumBudget(max_steps=1)
            )
            assert outcome.preemptible and not outcome.done
            while not outcome.done:
                outcome = service.resume_quantum(outcome.token)
            advisor.record([outcome])
    assert advisor.log.recorded == 1
    assert advisor.log.get(query).weight == 1.0
