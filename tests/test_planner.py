"""Planner tests: discovery, covering, base-view fallback, dispatch."""

from __future__ import annotations

import pytest

from repro.algorithms.engine import Algorithm
from repro.datasets import random_trees
from repro.errors import SelectionError
from repro.planner import Planner
from repro.storage.catalog import Scheme, ViewCatalog
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern


@pytest.fixture()
def doc():
    return random_trees.generate(size=250, max_depth=9, seed=12)


@pytest.fixture()
def planner(doc):
    with ViewCatalog(doc) as catalog:
        yield Planner(catalog)


def truth_keys(doc, query):
    return sorted(
        tuple(n.start for n in m) for m in find_embeddings(doc, query)
    )


def test_answer_with_full_cover(doc, planner):
    planner.register("//a//b")
    planner.register("//c")
    plan, result = planner.answer("//a//b//c")
    assert not plan.base_views
    assert result.match_keys() == truth_keys(doc, parse_pattern("//a//b//c"))


def test_answer_with_partial_cover_uses_base_views(doc, planner):
    planner.register("//a//b")
    plan, result = planner.answer("//a//b//c")
    assert [v.to_xpath() for v in plan.base_views] == ["//c"]
    assert result.match_keys() == truth_keys(doc, parse_pattern("//a//b//c"))


def test_answer_with_no_views_at_all(doc, planner):
    """Pure base views = classic holistic join over raw element streams."""
    plan, result = planner.answer("//a[//b]//c")
    assert len(plan.base_views) == 3
    assert not plan.views
    assert result.match_keys() == truth_keys(doc, parse_pattern("//a[//b]//c"))


def test_non_subpattern_views_skipped(doc, planner):
    planner.register("//c//a")  # inverted: unusable for //a//c
    plan = planner.plan("//a//c")
    assert not plan.views
    assert any("not subpatterns" in note for note in plan.explanation)


def test_overlapping_candidates_disjointified(doc, planner):
    planner.register("//a//b")
    planner.register("//b//c")  # overlaps on b
    plan, result = planner.answer("//a//b//c")
    tags = [tag for view in plan.views for tag in view.tag_set()]
    assert len(tags) == len(set(tags))
    assert result.match_keys() == truth_keys(doc, parse_pattern("//a//b//c"))


def test_interjoin_falls_back_on_twigs(doc):
    with ViewCatalog(doc) as catalog:
        planner = Planner(catalog, algorithm="IJ", scheme="LEp")
        plan = planner.plan("//a[//b]//c")
        assert plan.algorithm is Algorithm.VIEWJOIN
        assert any("InterJoin" in note for note in plan.explanation)


def test_interjoin_planner_on_paths(doc):
    with ViewCatalog(doc) as catalog:
        planner = Planner(catalog, algorithm="IJ")
        planner.register("//a//b")
        plan, result = planner.answer("//a//b//c")
        assert plan.algorithm is Algorithm.INTERJOIN
        assert plan.scheme is Scheme.TUPLE
        assert result.match_keys() == truth_keys(
            doc, parse_pattern("//a//b//c")
        )


def test_plan_describe(doc, planner):
    planner.register("//a//b")
    plan = planner.plan("//a//b//c")
    text = plan.describe()
    assert "//a//b" in text
    assert "base view" in text
    assert "VJ+LEp" in text


def test_register_accepts_patterns_and_strings(doc, planner):
    first = planner.register("//a//b", name="v1")
    second = planner.register(parse_pattern("//c"))
    assert first.name == "v1"
    assert planner.registered == [first, second]


def test_answer_empty_query_rejected(doc, planner):
    # A query over a tag absent from the document still plans (base view
    # materializes empty) and returns no matches.
    plan, result = planner.answer("//zzz")
    assert result.match_count == 0


def test_dataguide_pruning_skips_evaluation(doc):
    with ViewCatalog(doc) as catalog:
        planner = Planner(catalog)
        plan, result = planner.answer("//a//nonexistent//b")
        assert result.match_count == 0
        assert any("DataGuide" in note for note in plan.explanation)
        # No view was materialized for the refuted query.
        assert catalog.views() == []


def test_dataguide_pruning_never_blocks_real_matches(doc):
    with ViewCatalog(doc) as catalog:
        planner = Planner(catalog)
        __, result = planner.answer("//a//b")
        assert result.match_keys() == truth_keys(doc, parse_pattern("//a//b"))


def test_plan_cache_hits_and_generation(doc, planner):
    planner.register("//a//b")
    assert planner.plan_cache_stats.lookups == 0
    planner.plan("//a//b//c")
    planner.plan("//a//b//c")
    planner.plan(parse_pattern("//a//b//c"))
    stats = planner.plan_cache_stats
    assert stats.misses == 1
    assert stats.hits == 2
    generation = planner.generation
    planner.register("//c")
    assert planner.generation == generation + 1
    planner.plan("//a//b//c")
    assert planner.plan_cache_stats.misses == 2


def test_cached_plan_copies_are_isolated(doc, planner):
    planner.register("//a//b")
    first = planner.plan("//a//b//c")
    first.explanation.append("mutated by caller")
    first.views.clear()
    second = planner.plan("//a//b//c")
    assert "mutated by caller" not in second.explanation
    assert [v.to_xpath() for v in second.views] == ["//a//b"]


def test_adopt_catalog_views_invalidates_plan_cache(doc):
    with ViewCatalog(doc) as catalog:
        catalog.add(parse_pattern("//a//b", name="w1"), "LEp")
        planner = Planner(catalog)
        plan = planner.plan("//a//b")
        assert not plan.views  # nothing registered yet: base views only
        assert planner.adopt_catalog_views() == 1
        plan = planner.plan("//a//b")
        assert [v.to_xpath() for v in plan.views] == ["//a//b"]


# -- size source: catalog-measured first, exact only as fallback ---------------


def _count_matcher_passes(monkeypatch):
    """Record every naive-matcher pass the exact size source makes."""
    from repro.selection import estimates

    calls: list[str] = []
    real = estimates.solution_nodes

    def counting(document, view):
        calls.append(view.to_xpath())
        return real(document, view)

    monkeypatch.setattr(estimates, "solution_nodes", counting)
    return calls


def _plan_shape(plan):
    return (
        [(v.name, v.to_xpath()) for v in plan.views],
        [(v.name, v.to_xpath()) for v in plan.base_views],
    )


@pytest.mark.parametrize("scheme", ["E", "LE", "LEp"])
@pytest.mark.parametrize("dataset", ["xmark", "nasa"])
def test_plans_identical_under_measured_and_exact_sizes(
    dataset, scheme, monkeypatch
):
    """The plan is the same whether ``|L_q|`` is read off the catalog's
    materialized views or recomputed by the matcher — and with every
    candidate materialized, a cold plan never runs the matcher."""
    from repro import datasets, workloads
    from repro.selection import estimates

    document = getattr(datasets, dataset).generate(scale=1.0, seed=42)
    specs = getattr(workloads, dataset).ALL_QUERIES
    with ViewCatalog(document) as catalog:
        planner = Planner(catalog, scheme=scheme, plan_cache_size=0)
        registered: set[str] = set()
        for spec in specs:
            for view in spec.views:
                if view.to_xpath() not in registered:
                    registered.add(view.to_xpath())
                    planner.register(view)
        calls = _count_matcher_passes(monkeypatch)
        measured = [_plan_shape(planner.plan(spec.query)) for spec in specs]
        assert calls == []
        # Nothing harvested: every size now comes from the exact source.
        monkeypatch.setattr(estimates, "catalog_list_sizes", lambda __: {})
        exact = [_plan_shape(planner.plan(spec.query)) for spec in specs]
        assert calls
    assert measured == exact
    assert any(views for views, __ in measured)


def test_tuple_only_view_is_sized_by_the_exact_source(doc, monkeypatch):
    """The tuple scheme stores no per-tag lists, so a view held only in
    it is costed by one matcher pass; its E/LE siblings are not."""
    with ViewCatalog(doc) as catalog:
        planner = Planner(catalog, scheme="T", plan_cache_size=0)
        planner.register("//a//b")
        catalog.add(parse_pattern("//c"), "LE")
        planner.adopt_catalog_views()
        calls = _count_matcher_passes(monkeypatch)
        plan = planner.plan("//a//b//c")
        assert calls == ["//a//b"]
        assert [v.to_xpath() for v in plan.views] == ["//a//b", "//c"]
