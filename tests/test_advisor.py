"""View-advisor tests: candidate enumeration, and the recommendation
properties of a one-query workload (scoring, end-to-end payoff)."""

from __future__ import annotations

import pytest

from repro.algorithms.engine import evaluate
from repro.datasets import nasa as nasa_data
from repro.planner import Planner
from repro.selection import (
    DocumentStatistics,
    enumerate_connected_subpatterns,
    recommend_for_workload,
)
from repro.storage.catalog import ViewCatalog
from repro.tpq.containment import is_connected_subpattern
from repro.tpq.parser import parse_pattern
from repro.workloads import nasa


def test_enumerate_chain():
    query = parse_pattern("//a//b//c")
    views = enumerate_connected_subpatterns(query, min_size=2, max_size=3)
    texts = sorted(v.to_xpath() for v in views)
    assert texts == ["//a//b", "//a//b//c", "//b//c"]


def test_enumerate_twig():
    query = parse_pattern("//a[//b]//c")
    texts = {
        v.to_xpath()
        for v in enumerate_connected_subpatterns(query, 2, 3)
    }
    assert texts == {"//a//b", "//a//c", "//a[//b]//c"}


def test_enumerated_views_are_connected_subpatterns():
    query = nasa.QUERY_NT
    for view in enumerate_connected_subpatterns(query, 2, 4):
        assert is_connected_subpattern(view, query), view.to_xpath()


def test_enumeration_respects_size_bounds():
    query = parse_pattern("//a//b//c//d//e")
    for view in enumerate_connected_subpatterns(query, 2, 3):
        assert 2 <= len(view) <= 3


def test_axes_preserved():
    query = parse_pattern("//a/b//c")
    views = {
        v.to_xpath() for v in enumerate_connected_subpatterns(query, 2, 2)
    }
    assert "//a/b" in views
    assert "//b//c" in views


@pytest.fixture(scope="module")
def nasa_doc():
    return nasa_data.generate(scale=2.0, seed=7)


@pytest.fixture(scope="module")
def stats(nasa_doc):
    return DocumentStatistics.collect(nasa_doc)


def test_recommendations_are_disjoint_and_positive(stats):
    query = nasa.QUERY_NT
    advice = recommend_for_workload([query], stats, max_view_size=4)
    seen: set[str] = set()
    for view in advice.assignments[query.name]:
        assert not (seen & view.tag_set())
        seen |= view.tag_set()
    assert advice.chosen
    for candidate in advice.chosen:
        assert candidate.total_saving > 0


def test_recommended_views_actually_help(nasa_doc, stats):
    """Materializing the advisor's picks beats the all-base-views plan on
    real evaluation work — the advice is not just model-internal."""
    query = nasa.QUERY_NT
    recommended = recommend_for_workload(
        [query], stats, max_view_size=4
    ).assignments[query.name]
    assert recommended
    with ViewCatalog(nasa_doc) as catalog:
        planner = Planner(catalog, scheme="LE")
        baseline_views = planner.plan(query).base_views
        baseline = evaluate(query, catalog, baseline_views, "VJ", "LE")
        for view in recommended:
            planner.register(view)
        plan, advised = planner.answer(query)
    assert advised.match_keys() == baseline.match_keys()
    assert advised.counters.work < baseline.counters.work


def test_stats_reuse(stats):
    first = recommend_for_workload([nasa.QUERY_NP], stats)
    second = recommend_for_workload([nasa.QUERY_NP], stats)
    assert [v.to_xpath() for v in first.views] == [
        v.to_xpath() for v in second.views
    ]
    assert first.views
