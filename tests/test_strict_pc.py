"""Strict pc-edge admission tests (the TwigStackList-style refinement)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.engine import evaluate
from repro.datasets import random_trees
from repro.storage.catalog import ViewCatalog
from repro.storage.records import ElementEntry
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern
from tests.synthetic_lists import admit, buffer_over


def entry(start, end, level):
    return ElementEntry(start, end, level)


def test_innermost_container_basic():
    dag = buffer_over(parse_pattern("//a//b"))
    outer = admit(dag, "a", entry(0, 100, 0))
    nested = admit(dag, "a", entry(10, 40, 1))
    admit(dag, "a", entry(50, 60, 1))
    # The container comes back as its position in the tag's list.
    assert dag.innermost_container_at("a", 12, 13) == nested
    assert dag.lists["a"].levels[nested] == 1
    # Past the nested region: the outer candidate is the container.
    assert dag.innermost_container_at("a", 70, 71) == outer
    # Outside everything.
    assert dag.innermost_container_at("a", 200, 201) is None
    assert dag.innermost_container_at("zzz", 12, 13) is None


def test_innermost_container_skips_closed_siblings():
    dag = buffer_over(parse_pattern("//a//b"))
    outer = admit(dag, "a", entry(0, 100, 0))
    for i in range(5):  # closed siblings before the probe
        admit(dag, "a", entry(10 + 2 * i, 11 + 2 * i, 1))
    assert dag.innermost_container_at("a", 50, 51) == outer


QUERIES = ["//a/b//c", "//a[b]//c/d", "//a/b/c", "//b[/c]//d"]


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2_000), query_text=st.sampled_from(QUERIES))
def test_strict_pc_exact_and_never_bigger(seed, query_text):
    doc = random_trees.generate(
        size=220, tags=list("abcd"), max_depth=10, seed=seed
    )
    query = parse_pattern(query_text)
    views = [parse_pattern(f"//{tag}") for tag in query.tags()]
    expected = sorted(
        tuple(n.start for n in m) for m in find_embeddings(doc, query)
    )
    with ViewCatalog(doc) as catalog:
        loose = evaluate(query, catalog, views, "TS", "E")
        strict = evaluate(query, catalog, views, "TS", "E", strict_pc=True)
    assert loose.match_keys() == expected
    assert strict.match_keys() == expected
    assert (
        strict.counters.candidates_added <= loose.counters.candidates_added
    )


def test_strict_pc_prunes_on_pc_heavy_query():
    """On a pc-heavy query over recursive data, strict admission must
    actually remove useless candidates, not just tie."""
    doc = random_trees.generate(
        size=400, tags=list("abc"), max_depth=10, seed=3
    )
    query = parse_pattern("//a/b/c")
    views = [parse_pattern(f"//{tag}") for tag in query.tags()]
    with ViewCatalog(doc) as catalog:
        loose = evaluate(query, catalog, views, "TS", "E")
        strict = evaluate(query, catalog, views, "TS", "E", strict_pc=True)
    assert strict.match_keys() == loose.match_keys()
    assert strict.counters.candidates_added < loose.counters.candidates_added
