"""Online adaptive view advisor tests (DESIGN.md §14).

Covers the measured-cost calibration layer (``CalibratedStatistics``
answering exactly for harvested views, estimate fallback otherwise),
the workload log contract (recording, decay, JSON round-trip), the
budgeted adoption controller (adopt/keep/drop churn under a drifting
workload, determinism for a fixed log), and the service integration
(cache/planner coherence on adopt and drop, parallel equality, the
``advisor=False`` default).
"""

from __future__ import annotations

import pytest

from repro.datasets import random_trees
from repro.errors import SelectionError, ServiceError
from repro.selection.estimates import (
    CalibratedStatistics,
    DocumentStatistics,
    ExactSizes,
    catalog_list_sizes,
)
from repro.selection.online import (
    ADVISOR_PREFIX,
    AdoptedView,
    Measurement,
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


def advisor_service(catalog, **kwargs):
    kwargs.setdefault("advisor", True)
    kwargs.setdefault("advisor_budget_bytes", 150_000.0)
    return QueryService(catalog, **kwargs)


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


def outcome_stub(query, *, work=100, refuted=False, cached=False, error=""):
    class _Outcome:
        pass

    o = _Outcome()
    o.query = query
    o.refuted = refuted
    o.cached = cached
    o.shared = False
    o.degraded = False
    o.error = error
    o.plan_views = ("//a//b",)
    o.measured = Measurement(
        work=work, elements_scanned=work // 2, comparisons=work // 4,
        logical_reads=work // 5, physical_reads=0, matches=3,
        elapsed_s=0.0,
    )
    return o


def test_log_records_and_aggregates():
    log = WorkloadLog()
    log.record(outcome_stub("//a//b", work=100))
    log.record(outcome_stub("//a//b", work=40, cached=True))
    log.record(outcome_stub("//c"))
    assert len(log) == 2
    assert log.recorded == 3
    obs = log.get("//a//b")
    assert obs.count == 2 and obs.weight == 2.0
    # Cached replays record their full logical demand.
    assert obs.work == 140 and obs.cache_hits == 1
    assert obs.plan_views == ("//a//b",)


def test_log_refuted_and_error_carry_no_weight():
    log = WorkloadLog()
    log.record(outcome_stub("//a//x", refuted=True))
    log.record(outcome_stub("//a//y", error="boom"))
    assert log.get("//a//x").weight == 0.0
    assert log.get("//a//x").refuted == 1
    assert log.get("//a//y").weight == 0.0
    assert log.get("//a//y").errors == 1
    assert log.get("//a//x").work == 0


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
    log.record(outcome_stub("//a//b", work=100))
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
        log.record(outcome_stub("//a//b//c", work=2_000))
    assert log.get("//a//b//c").refuted == 1
    assert plan_adoption(log, calibration, budget_bytes=1e9).adopt


def test_hot_query_earns_exact_view(doc, stats):
    """Specialization: a measured-hot twig displaces the small shared
    view the static density order admits first and gets its own exact
    view; the unweighted offline advisor keeps the shared set."""
    hot = "//a[//b]//c"
    log = WorkloadLog()
    for _ in range(25):
        log.record(outcome_stub(hot, work=5_000))
    log.record(outcome_stub("//a//c", work=100))
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


# -- service integration -------------------------------------------------------


def test_query_outcome_measured_contract(doc):
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as service:
            outcome = service.evaluate("//a//b//c")
    measured = outcome.measured
    assert isinstance(measured, Measurement)
    assert measured.work == outcome.counters.work
    assert measured.elements_scanned == outcome.counters.elements_scanned
    assert measured.comparisons == outcome.counters.comparisons
    assert measured.logical_reads == outcome.io.logical_reads
    assert measured.physical_reads == outcome.io.physical_reads
    assert measured.matches == outcome.match_count
    assert measured.elapsed_s == outcome.elapsed_s
    assert measured.as_dict()["work"] == measured.work


def test_adoption_coherence_and_identical_answers(doc):
    """Adopting views invalidates like ``register``: planner generation
    and catalog version bump, caches empty, answers byte-identical."""
    workload = repeated_batch(24, overlap=0.6, seed=5)
    with ViewCatalog(doc) as catalog:
        with advisor_service(catalog) as service:
            before = service.evaluate_batch(workload.queries)
            generation = service.planner.generation
            version = service.catalog.version
            plan = service.advisor_cycle()
            assert plan.adopt
            assert service.planner.generation > generation
            assert service.catalog.version > version
            assert len(service._stream_cache) == 0
            adopted_names = {
                view.name for view in service._advisor_adopted.values()
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
        with advisor_service(catalog, advisor_decay=0.0) as service:
            service.evaluate_batch(workload.queries)
            plan = service.advisor_cycle()
            assert plan.adopt
            # decay=0.0 wiped all demand: the next cycle drops everything.
            generation = service.planner.generation
            version = service.catalog.version
            plan = service.advisor_cycle()
            assert plan.drop and not plan.adopt
            assert not service._advisor_adopted
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
        with advisor_service(catalog) as service:
            service.evaluate_batch(workload.queries)
            assert service.advisor_cycle().adopt
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
        with advisor_service(
            catalog, advisor_budget_bytes=budget
        ) as service:
            for workload in phases:
                service.evaluate_batch(workload.queries)
                plan = service.advisor_cycle()
                dropped_total += len(plan.drop)
                metrics = service.advisor_metrics()
                assert metrics["adopted_bytes"] <= budget
                adopted_per_phase.append(
                    set(service._advisor_adopted)
                )
            metrics = service.advisor_metrics()
    assert any(adopted_per_phase), "drifting phases must adopt views"
    # The phase-1 hot set is not simply carried forever: drift churns it.
    assert dropped_total > 0 or adopted_per_phase[0] != adopted_per_phase[-1]
    assert metrics["cycles"] == len(phases)
    assert metrics["events"], "adopt/drop events must be recorded"
    assert all("cycle" in event for event in metrics["events"])


def test_advisor_interval_runs_cycles_automatically(doc):
    workload = repeated_batch(12, overlap=0.6, seed=5)
    with ViewCatalog(doc) as catalog:
        with advisor_service(catalog, advisor_interval=6) as service:
            for query in workload.queries:
                service.evaluate(query)
            assert service.advisor_metrics()["cycles"] >= 2


def test_advisor_disabled_by_default(doc):
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as service:
            assert service.advisor_log is None
            service.evaluate("//a//b")  # records nothing, raises nothing
            metrics = service.advisor_metrics()
            assert not metrics["enabled"] and metrics["recorded"] == 0
            with pytest.raises(ServiceError):
                service.advisor_cycle()
