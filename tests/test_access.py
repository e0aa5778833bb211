"""TagSource / build_sources unit tests."""

from __future__ import annotations

import pytest

from repro.algorithms.access import TagSource, build_sources, total_input_entries
from repro.algorithms.base import Counters
from repro.algorithms.engine import evaluate
from repro.datasets import random_trees
from repro.errors import EvaluationError
from repro.storage.catalog import ViewCatalog, materialize
from repro.tpq.matching import solution_nodes
from repro.tpq.parser import parse_pattern


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(size=200, max_depth=8, seed=6)


@pytest.fixture(scope="module")
def le_view(doc):
    return materialize(doc, parse_pattern("//a[//b]//c"), "LE")


@pytest.fixture(scope="module")
def e_view(doc):
    return materialize(doc, parse_pattern("//a[//b]//c"), "E")


def test_pointer_capability(le_view, e_view):
    assert TagSource(le_view, "a").has_pointers
    assert not TagSource(e_view, "a").has_pointers


def test_tuple_views_rejected(doc):
    tuple_view = materialize(doc, parse_pattern("//a//c"), "T")
    with pytest.raises(EvaluationError):
        TagSource(tuple_view, "a")


def test_child_slot(le_view, e_view):
    source = TagSource(le_view, "a")
    assert source.child_slot("b") == 0
    assert source.child_slot("c") == 1
    assert source.child_slot("zzz") is None
    assert TagSource(e_view, "a").child_slot("b") is None


def test_cursor_counts_scans(le_view):
    counters = Counters()
    cursor = TagSource(le_view, "a").cursor(counters)
    while not cursor.exhausted:
        cursor.advance()
    assert counters.elements_scanned == len(le_view.list_for("a"))


def test_bisect_start(doc, e_view):
    source = TagSource(e_view, "c")
    counters = Counters()
    sols = solution_nodes(doc, parse_pattern("//a[//b]//c"))["c"]
    starts = [n.start for n in sols]
    for probe in [0, starts[0], starts[-1], starts[-1] + 100]:
        expected = sum(1 for s in starts if s <= probe)
        assert source.bisect_start(probe, counters) == expected
    assert counters.comparisons > 0


def test_bisect_start_with_index_agrees(doc, e_view):
    plain = TagSource(e_view, "c")
    indexed = TagSource(e_view, "c")
    indexed.ensure_index()
    indexed.ensure_index()  # idempotent
    counters = Counters()
    for probe in range(0, 400, 7):
        assert indexed.bisect_start(probe, counters) == plain.bisect_start(
            probe, counters
        )


def test_collect_from_region(doc, e_view):
    """The region fetch hands back an index run of the list: exactly the
    entries that start inside the region, each charged as scanned."""
    source = TagSource(e_view, "c")
    starts = [entry.start for entry in e_view.list_for("c").scan()]
    a_nodes = solution_nodes(doc, parse_pattern("//a[//b]//c"))["a"]
    assert a_nodes
    for region in a_nodes:
        counters = Counters()
        lo = source.bisect_start(region.start, counters)
        hi = source.collect_from(lo, region.end, counters)
        assert list(range(lo, hi)) == [
            index for index, start in enumerate(starts)
            if region.start < start < region.end
        ]
        assert counters.elements_scanned == hi - lo
        assert list(source.labels.starts[lo:hi]) == starts[lo:hi]


def test_build_sources_missing_tag(doc, le_view):
    query = parse_pattern("//a[//b]//c//zzz")
    with pytest.raises(EvaluationError):
        build_sources(query, [le_view], [parse_pattern("//a[//b]//c")])


def test_total_input_entries(doc, le_view):
    query = parse_pattern("//a[//b]//c")
    sources = build_sources(query, [le_view], [query])
    assert total_input_entries(sources) == sum(
        len(le_view.list_for(tag)) for tag in query.tags()
    )


@pytest.mark.parametrize("scheme", ["E", "LE", "LEp"])
@pytest.mark.parametrize("engine", ["TS", "PS", "VJ"])
def test_empty_list_is_read_through_its_columns(doc, engine, scheme):
    """A view tag with no solution nodes has a zero-length list; it still
    carries (empty) columns, so the engines read it like any other."""
    views = [parse_pattern("//a//zzz"), parse_pattern("//c")]
    query = parse_pattern("//a//zzz//c")
    with ViewCatalog(doc) as catalog:
        result = evaluate(query, catalog, views, engine, scheme)
        assert result.match_count == 0 and result.matches == []
        sources = build_sources(
            query, [catalog.get(view, scheme) for view in views], views
        )
        empty = sources["zzz"]
        assert len(empty) == 0 and len(empty.stored.columns) == 0
        for source in sources.values():
            assert source.labels is source.stored.columns
