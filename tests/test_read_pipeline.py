"""One read pipeline (DESIGN.md §9): every entry point settles alike.

``evaluate``, ``evaluate_batch``, ``evaluate_parallel`` and
``evaluate_quantum`` compose the same lookup / execute / settle stages,
so for one query they must agree on the answer, its accounting, and the
state they leave behind in the result cache and the circuit breaker.
"""

from __future__ import annotations

import pytest

from repro.datasets import random_trees
from repro.errors import StoreCorrupt
from repro.service import JobFailure, QueryService
from repro.service import core as core_mod
from repro.storage.catalog import ViewCatalog
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern

QUERY = "//a//b//c"
VIEWS = ["//a//b", "//c"]


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(size=250, max_depth=9, seed=12)


def fresh_service(catalog, **kwargs):
    service = QueryService(catalog, **kwargs)
    for view in VIEWS:
        service.register(view)
    return service


def truth_keys(doc, query):
    return sorted(
        tuple(n.start for n in m)
        for m in find_embeddings(doc, parse_pattern(query))
    )


def io_key(io):
    return (io.logical_reads, io.physical_reads, io.pages_written)


READS = {
    "evaluate": lambda svc: svc.evaluate(QUERY),
    "batch": lambda svc: svc.evaluate_batch([QUERY]).outcomes[0],
    "parallel": lambda svc: svc.evaluate_parallel(
        [QUERY], workers=2
    ).outcomes[0],
    "quantum": lambda svc: svc.evaluate_quantum(QUERY, budget=None),
}


def test_entry_points_agree_on_answer_and_leftover_state(doc):
    seen = {}
    for name, read in READS.items():
        with ViewCatalog(doc) as catalog:
            with fresh_service(catalog, result_cache_size=8) as svc:
                planned = svc._plan_view_names(svc.planner.plan(QUERY))
                # One earlier operational failure per planned view: a
                # healthy read must reset it on every path.
                for view in planned:
                    svc.breaker.record_failure(view, "timeout")
                outcome = read(svc)
                keys = outcome.page if name == "quantum" else outcome.match_keys
                seen[name] = (
                    list(keys),
                    outcome.counters.as_dict(),
                    list(outcome.plan_views),
                    svc.breaker.metrics(),
                    io_key(outcome.io),
                    sorted(svc._result_cache._entries),
                )
    reference = seen["evaluate"]
    assert reference[0] == truth_keys(doc, QUERY)
    assert all(
        state["failures"] == 0 for state in reference[3].values()
    ) and reference[3]
    assert len(reference[5]) == 1          # the answer was cached
    assert seen["batch"] == reference
    assert seen["parallel"] == reference
    # A paginated answer is a stream, not a cacheable value: the quantum
    # path bypasses the result cache by design (and reports the engine's
    # own per-quantum I/O), everything else agrees.
    assert seen["quantum"][:4] == reference[:4]
    assert seen["quantum"][5] == []


def test_healthy_in_process_read_resets_the_breaker(doc):
    """Three worker losses spread over healthy in-process reads must not
    quarantine a view: success is recorded on every read path."""
    with ViewCatalog(doc) as catalog:
        with fresh_service(catalog) as svc:
            plan = svc.planner.plan(QUERY)
            lost = JobFailure(index=0, kind="worker-lost", message="injected")
            svc._note_failure(plan, lost)
            svc._note_failure(plan, lost)
            assert svc.evaluate(QUERY).match_keys == truth_keys(doc, QUERY)
            svc._note_failure(plan, lost)
            assert svc.breaker.quarantined == ()


def test_quantum_degrades_on_corruption_under_any_plan(doc, monkeypatch):
    """``evaluate_quantum`` promises the degraded answer on store
    corruption — also for plans that cannot suspend (non-ViewJoin)."""
    real_run_job = core_mod.run_job

    def corrupt_view_reads(catalog, job, expect_warm=False):
        if expect_warm:  # the planned run; the base-view rerun is cold
            raise StoreCorrupt("injected", pages=(0,))
        return real_run_job(catalog, job, expect_warm=expect_warm)

    with ViewCatalog(doc) as catalog:
        with fresh_service(catalog, algorithm="TS") as svc:
            monkeypatch.setattr(core_mod, "run_job", corrupt_view_reads)
            outcome = svc.evaluate_quantum(QUERY)
            assert outcome.done and outcome.degraded
            assert not outcome.preemptible and outcome.token is None
            assert outcome.page == truth_keys(doc, QUERY)
            assert svc.resilience_metrics()["degraded_queries"] == 1
