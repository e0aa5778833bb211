"""Cross-feature integration tests.

Each test threads several subsystems together the way a downstream user
would: collections feed catalogs, catalogs persist and reload, planners
answer from reloaded stores, advisors feed planners, result views persist.
"""

from __future__ import annotations

import pytest

from repro.algorithms.engine import evaluate
from repro.datasets import random_trees
from repro.planner import Planner
from repro.selection import DocumentStatistics, recommend_for_workload
from repro.storage.catalog import ViewCatalog
from repro.storage.persistence import load_catalog, save_catalog
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern
from repro.xmltree.collection import combine_documents


def truth_keys(doc, query):
    return sorted(
        tuple(n.start for n in m) for m in find_embeddings(doc, query)
    )


def test_collection_store_roundtrip(tmp_path):
    """Combine documents -> materialize -> persist -> reload -> answer."""
    members = [
        random_trees.generate(size=120, tags=list("abc"), max_depth=8,
                              seed=50 + i)
        for i in range(3)
    ]
    combined = combine_documents(members)
    query = parse_pattern("//a//b//c")
    views = [parse_pattern("//a//b", name="v1"),
             parse_pattern("//c", name="v2")]
    expected = truth_keys(combined, query)
    with ViewCatalog(combined) as catalog:
        catalog.add_all(views, "LEp")
        save_catalog(catalog, tmp_path / "store")
    reloaded = load_catalog(tmp_path / "store")
    try:
        result = evaluate(query, reloaded, views, "VJ", "LEp")
        assert result.match_keys() == expected
    finally:
        reloaded.close()


def test_planner_over_reloaded_store_with_pruning(tmp_path):
    doc = random_trees.generate(size=200, tags=list("abc"), max_depth=8,
                                seed=77)
    with ViewCatalog(doc) as catalog:
        planner = Planner(catalog)
        planner.register("//a//b")
        save_catalog(catalog, tmp_path / "store")
    reloaded = load_catalog(tmp_path / "store")
    try:
        planner = Planner(reloaded)
        assert planner.adopt_catalog_views() == 1
        # Real query answered from the reloaded view + base fallback.
        plan, result = planner.answer("//a//b//c")
        assert result.match_keys() == truth_keys(
            reloaded.document, parse_pattern("//a//b//c")
        )
        # Refutable query pruned without touching storage.
        plan, refuted = planner.answer("//c//zzz")
        assert refuted.match_count == 0
        assert any("DataGuide" in note for note in plan.explanation)
    finally:
        reloaded.close()


def test_advised_views_persist_and_reload(tmp_path):
    doc = random_trees.generate(size=250, tags=list("abcd"), max_depth=9,
                                seed=31)
    query = parse_pattern("//a[//b]//c//d")
    advice = recommend_for_workload(
        [query], DocumentStatistics.collect(doc), max_view_size=3
    )
    with ViewCatalog(doc) as catalog:
        planner = Planner(catalog, scheme="LE")
        for view in advice.views:
            planner.register(view)
        plan, before = planner.answer(query)
        save_catalog(catalog, tmp_path / "store")
    reloaded = load_catalog(tmp_path / "store")
    try:
        planner = Planner(reloaded, scheme="LE")
        planner.adopt_catalog_views()
        plan, after = planner.answer(query)
        assert after.match_keys() == before.match_keys()
    finally:
        reloaded.close()


def test_result_view_survives_persistence(tmp_path):
    doc = random_trees.generate(size=200, tags=list("abc"), max_depth=8,
                                seed=13)
    base_query = parse_pattern("//a//b", name="cached")
    with ViewCatalog(doc) as catalog:
        views = [parse_pattern("//a"), parse_pattern("//b")]
        result = evaluate(base_query, catalog, views, "VJ", "LE")
        catalog.add_result_view(base_query, result.matches, "LE")
        save_catalog(catalog, tmp_path / "store")
        expected = result.match_keys()
    reloaded = load_catalog(tmp_path / "store")
    try:
        again = evaluate(base_query, reloaded, [base_query], "VJ", "LE")
        assert again.match_keys() == expected
    finally:
        reloaded.close()


def test_streaming_from_reloaded_store(tmp_path):
    doc = random_trees.generate(size=250, tags=list("abc"), max_depth=9,
                                seed=8)
    query = parse_pattern("//a//b//c")
    views = [parse_pattern("//a//b"), parse_pattern("//c")]
    with ViewCatalog(doc) as catalog:
        catalog.add_all(views, "LE")
        expected = evaluate(query, catalog, views, "VJ", "LE").match_keys()
        save_catalog(catalog, tmp_path / "store")
    reloaded = load_catalog(tmp_path / "store")
    try:
        batches: list[list] = []
        evaluate(query, reloaded, views, "VJ", "LE", sink=batches.append)
        flattened = sorted(
            tuple(e.start for e in match)
            for batch in batches
            for match in batch
        )
        assert flattened == expected
    finally:
        reloaded.close()
