"""Workload-level view recommendation tests."""

from __future__ import annotations

import pytest

from repro.algorithms.engine import evaluate
from repro.datasets import nasa as nasa_data
from repro.planner import Planner
from repro.selection import DocumentStatistics, recommend_for_workload
from repro.storage.catalog import ViewCatalog
from repro.tpq.containment import is_subpattern
from repro.tpq.parser import parse_pattern
from repro.workloads import nasa


@pytest.fixture(scope="module")
def doc():
    return nasa_data.generate(scale=2.0, seed=7)


@pytest.fixture(scope="module")
def stats(doc):
    return DocumentStatistics.collect(doc)


@pytest.fixture(scope="module")
def workload():
    # Overlapping queries: all three share field//definition structure.
    return [
        parse_pattern("//dataset//field//definition//para", name="W1"),
        parse_pattern("//tableHead//field//definition//footnote", name="W2"),
        parse_pattern("//field//definition//para", name="W3"),
    ]


def test_shared_views_amortize(stats, workload):
    advice = recommend_for_workload(workload, stats)
    shared = [
        candidate
        for candidate in advice.chosen
        if len(candidate.per_query_saving) >= 2
    ]
    assert shared, "expected at least one view shared across queries"


def test_assignments_are_tag_disjoint_subpatterns(stats, workload):
    advice = recommend_for_workload(workload, stats)
    for query in workload:
        assigned = advice.assignments[query.name]
        seen: set[str] = set()
        for view in assigned:
            assert is_subpattern(view, query)
            assert not (seen & view.tag_set())
            seen |= view.tag_set()


def test_budget_respected(stats, workload):
    unlimited = recommend_for_workload(workload, stats)
    assert unlimited.used_bytes > 0
    tight = recommend_for_workload(
        workload, stats, budget_bytes=unlimited.used_bytes / 2
    )
    assert tight.used_bytes <= unlimited.used_bytes / 2
    assert len(tight.chosen) <= len(unlimited.chosen)
    assert any("over budget" in note for note in tight.notes)


def test_zero_budget_chooses_nothing(stats, workload):
    advice = recommend_for_workload(workload, stats, budget_bytes=0)
    assert advice.chosen == []
    assert all(not views for views in advice.assignments.values())


def test_density_ordering(stats, workload):
    advice = recommend_for_workload(workload, stats)
    densities = [candidate.density for candidate in advice.chosen]
    assert densities == sorted(densities, reverse=True)


def test_workload_advice_pays_off_end_to_end(doc, stats, workload):
    """Evaluating the workload with the advised shared views beats the
    all-base-views plan on total work."""
    advice = recommend_for_workload(workload, stats)
    with ViewCatalog(doc) as catalog:
        total_base = 0
        total_advised = 0
        for query in workload:
            planner = Planner(catalog, scheme="LE")
            base_views = planner.plan(query).base_views
            base = evaluate(query, catalog, base_views, "VJ", "LE")
            for view in advice.assignments[query.name]:
                planner.register(view)
            __, advised = planner.answer(query)
            assert advised.match_keys() == base.match_keys()
            total_base += base.counters.work
            total_advised += advised.counters.work
    assert total_advised < total_base


def test_nasa_workload_smoke(stats):
    """The full N5-N8 twig workload gets a non-empty shared advice."""
    queries = [nasa.BY_NAME[n].query for n in ("N5", "N6", "N7", "N8")]
    advice = recommend_for_workload(queries, stats, max_view_size=3)
    assert advice.chosen
    assert advice.used_bytes > 0
