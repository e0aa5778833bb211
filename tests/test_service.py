"""QueryService tests: planning, caches, warm-up contract, store attach."""

from __future__ import annotations

import pytest

from repro.algorithms.preempt import QuantumBudget
from repro.datasets import random_trees
from repro.errors import ContinuationExpired, ServiceError
from repro.service import EvalJob, QueryService, run_job
from repro.storage.catalog import ViewCatalog
from repro.storage.persistence import save_catalog
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern

QUERIES = ["//a//b//c", "//a[//b]//c", "//a//b"]


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(size=250, max_depth=9, seed=12)


@pytest.fixture()
def service(doc):
    with ViewCatalog(doc) as catalog:
        svc = QueryService(catalog, result_cache_size=8)
        svc.register("//a//b")
        svc.register("//c")
        yield svc
        svc.close()


def truth_keys(doc, query):
    return sorted(
        tuple(n.start for n in m)
        for m in find_embeddings(doc, parse_pattern(query))
    )


def test_evaluate_matches_ground_truth(doc, service):
    for query in QUERIES:
        outcome = service.evaluate(query)
        assert outcome.match_keys == truth_keys(doc, query), query
        assert outcome.match_count == len(outcome.match_keys)
        assert not outcome.cached


def test_plan_cache_eliminates_replanning(service):
    service.evaluate("//a//b//c", emit_matches=False)
    baseline = service.plan_cache_stats.misses
    service.evaluate("//a//b//c", emit_matches=False)
    service.evaluate("//a//b//c", emit_matches=True)
    stats = service.plan_cache_stats
    # Repeats of the same canonical query never re-plan.
    assert stats.misses == baseline
    assert stats.hits >= 2


def test_plan_cache_invalidated_by_register(service):
    service.evaluate("//a//b//c", emit_matches=False)
    generation = service.planner.generation
    misses = service.plan_cache_stats.misses
    service.register("//d")
    assert service.planner.generation == generation + 1
    service.evaluate("//a//b//c", emit_matches=False)
    assert service.plan_cache_stats.misses == misses + 1


def test_result_cache_hit_and_invalidation(doc, service):
    first = service.evaluate("//a//b//c")
    second = service.evaluate("//a//b//c")
    assert second.cached and not first.cached
    assert second.match_keys == first.match_keys
    assert second.counters == first.counters
    assert service.result_cache_stats.hits == 1
    # Different mode/emit keys miss.
    service.evaluate("//a//b//c", emit_matches=False)
    assert service.result_cache_stats.misses >= 2
    # Registration invalidates.
    service.register("//a//c")
    third = service.evaluate("//a//b//c")
    assert not third.cached
    assert third.match_keys == first.match_keys


def test_drop_is_the_inverse_of_register(doc, service):
    """Dropping a registered view invalidates what registering it did:
    planner generation, catalog version, result and stream caches, and a
    suspended chain that planned over it; answers stay correct."""
    suspended = service.evaluate_quantum(
        "//a//b//c", budget=QuantumBudget(max_steps=1)
    )
    assert not suspended.done and "//a//b" in suspended.plan_views
    service.evaluate_batch(QUERIES)
    service.evaluate("//a[//b]//c")
    assert len(service._result_cache) and len(service._stream_cache)
    generation = service.planner.generation
    version = service.catalog.version
    assert service.drop("//a//b")
    assert service.planner.generation > generation
    assert service.catalog.version > version
    assert len(service._result_cache) == 0
    assert len(service._stream_cache) == 0
    assert "//a//b" not in service.catalog.view_names()
    with pytest.raises(ContinuationExpired):
        service.resume_quantum(suspended.token)
    for query in QUERIES:
        outcome = service.evaluate(query)
        assert "//a//b" not in outcome.plan_views
        assert outcome.match_keys == truth_keys(doc, query), query


def test_drop_unknown_view_changes_nothing(service):
    service.evaluate("//a//b//c")
    generation = service.planner.generation
    version = service.catalog.version
    assert not service.drop("//no//such")
    assert service.planner.generation == generation
    assert service.catalog.version == version
    assert service.evaluate("//a//b//c").cached


def test_result_cache_disabled_by_default(doc):
    with ViewCatalog(doc) as catalog:
        with QueryService(catalog) as svc:
            svc.register("//a//b")
            svc.evaluate("//a//b")
            assert not svc.evaluate("//a//b").cached


def test_warmup_materializes_once(doc, service):
    # "//a//d" needs the base view for the uncovered tag d.
    queries = QUERIES + ["//a//d"]
    performed = service.warmup(queries)
    assert performed > 0
    # Second warm-up over the same queries is a no-op.
    assert service.warmup(queries) == 0
    before = service.catalog.materializations
    for query in queries:
        service.evaluate(query, emit_matches=False)
    assert service.catalog.materializations == before


def test_expect_warm_guard_fires_before_evaluation(doc):
    with ViewCatalog(doc) as catalog:
        job = EvalJob.from_patterns(
            0, parse_pattern("//a//b"), [parse_pattern("//a//b")],
            "VJ", "LE",
        )
        with pytest.raises(ServiceError, match="warmed up"):
            run_job(catalog, job, expect_warm=True)
        # Nothing was materialized by the failed attempt.
        assert catalog.materializations == 0


def test_refuted_query_returns_empty(service):
    outcome = service.evaluate("//zzz//yyy")
    assert outcome.refuted
    assert outcome.match_count == 0 and outcome.match_keys == []
    assert outcome.counters.work == 0


def test_constructor_requires_exactly_one_source(doc):
    with pytest.raises(ServiceError):
        QueryService()
    with ViewCatalog(doc) as catalog:
        with pytest.raises(ServiceError):
            QueryService(catalog, store_path="/nonexistent")


def test_open_from_store_answers_identically(doc, tmp_path):
    with ViewCatalog(doc) as catalog:
        catalog.add(parse_pattern("//a//b", name="w1"), "LEp")
        catalog.add(parse_pattern("//c", name="w2"), "LEp")
        save_catalog(catalog, tmp_path / "store")
    with QueryService.open(tmp_path / "store") as svc:
        # adopt_catalog_views ran in the constructor.
        assert len(svc.planner.registered) == 2
        for query in QUERIES:
            outcome = svc.evaluate(query)
            assert outcome.match_keys == truth_keys(doc, query), query


def test_batch_merges_counters_in_order(doc, service):
    batch = service.evaluate_batch(QUERIES)
    assert batch.match_counts == [
        len(truth_keys(doc, query)) for query in QUERIES
    ]
    total = sum(outcome.counters.work for outcome in batch.outcomes)
    assert batch.counters.work == total
    assert batch.io.logical_reads == sum(
        outcome.io.logical_reads for outcome in batch.outcomes
    )
