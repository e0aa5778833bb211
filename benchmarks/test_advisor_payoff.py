"""Extension experiment E2: does the view advisor's advice pay off?

For each NASA twig query we compare three plans on real evaluation work:

* **base** — no views (raw element streams);
* **workload** — the hand-designed covering sets of the Fig. 5 workload;
* **advised** — views recommended by the cost-model advisor (which never
  materialized anything while deciding).

Expected: advised <= base everywhere, and competitive with the
hand-designed sets (the advisor optimizes the same Section V objective the
hand sets were built around).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_report
from repro.algorithms.engine import evaluate
from repro.bench.report import format_table
from repro.planner import Planner
from repro.selection import DocumentStatistics, recommend_for_workload
from repro.workloads import nasa

QUERIES = ("N5", "N6", "N7", "N8")


@pytest.fixture(scope="module")
def comparison(nasa_doc, nasa_catalog):
    stats = DocumentStatistics.collect(nasa_doc)
    rows = []
    outcome = {}
    for name in QUERIES:
        spec = nasa.BY_NAME[name]
        planner = Planner(nasa_catalog, scheme="LE")
        base_views = planner.plan(spec.query).base_views
        base = evaluate(
            spec.query, nasa_catalog, base_views, "VJ", "LE",
            emit_matches=False,
        )
        workload = evaluate(
            spec.query, nasa_catalog, spec.views, "VJ", "LE",
            emit_matches=False,
        )
        recommended = recommend_for_workload(
            [spec.query], stats, max_view_size=4
        ).views
        advise_planner = Planner(nasa_catalog, scheme="LE")
        for view in recommended:
            advise_planner.register(view)
        __, advised = advise_planner.answer(spec.query, emit_matches=False)
        rows.append(
            [name,
             base.counters.work, workload.counters.work,
             advised.counters.work,
             "; ".join(v.to_xpath() for v in recommended)]
        )
        outcome[name] = (base, workload, advised)
    write_report(
        "advisor_payoff",
        "Extension E2 — advisor-recommended views vs hand-designed vs"
        " base (VJ+LE work):",
        format_table(
            ["query", "base work", "workload-views work", "advised work",
             "advised views"],
            rows,
        ),
    )
    return outcome


def test_matches_agree(comparison):
    for name, (base, workload, advised) in comparison.items():
        assert base.match_count == workload.match_count == \
            advised.match_count, name


def test_advised_beats_base(comparison):
    for name, (base, __, advised) in comparison.items():
        assert advised.counters.work <= base.counters.work, name


def test_advised_competitive_with_hand_sets(comparison):
    """Within 1.5x of the hand-designed covering sets on every query."""
    for name, (__, workload, advised) in comparison.items():
        assert advised.counters.work <= 1.5 * workload.counters.work, name


@pytest.mark.parametrize("plan_kind", ["base", "advised"])
def test_bench_plans(benchmark, nasa_doc, nasa_catalog, plan_kind,
                     comparison):
    spec = nasa.BY_NAME["N5"]
    planner = Planner(nasa_catalog, scheme="LE")
    if plan_kind == "advised":
        stats = DocumentStatistics.collect(nasa_doc)
        for view in recommend_for_workload(
            [spec.query], stats, max_view_size=4
        ).views:
            planner.register(view)
        views = planner.plan(spec.query).all_views
    else:
        views = planner.plan(spec.query).base_views

    def run():
        return evaluate(
            spec.query, nasa_catalog, views, "VJ", "LE",
            emit_matches=False,
        ).match_count

    assert benchmark(run) >= 0
