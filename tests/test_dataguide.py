"""DataGuide summary tests: structure, counts, pruning soundness."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.datasets import random_trees, xmark
from repro.datasets.updates import random_update_sequence
from repro.maintenance.apply import apply_delta, apply_deltas
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern
from repro.xmltree.dataguide import DataGuide


def test_summary_structure(small_doc):
    guide = DataGuide(small_doc)
    # Every distinct root path appears exactly once.
    paths = guide.paths()
    assert len(paths) == len(set(paths)) == len(guide)
    assert ("r",) in paths
    assert ("r", "a", "b", "d", "e") in paths


def test_counts(small_doc):
    guide = DataGuide(small_doc)
    assert guide.count_of(("r",)) == 1
    assert guide.count_of(("r", "a", "b", "c")) == 1
    assert guide.count_of(("r", "zzz")) == 0
    assert guide.count_of(("x",)) == 0


def test_counts_aggregate_instances(recursive_doc):
    guide = DataGuide(recursive_doc)
    # Three e's under the first-level a path.
    assert guide.count_of(("root", "a", "e")) == 5  # e1-e4, e6
    assert guide.count_of(("root", "a", "a", "e")) == 1  # e5


def test_summary_much_smaller_than_document():
    doc = random_trees.generate(size=800, tags=list("ab"), max_depth=6,
                                seed=1)
    guide = DataGuide(doc)
    assert len(guide) < len(doc) / 4


def test_count_totals_match_document():
    doc = random_trees.generate(size=300, max_depth=8, seed=2)
    guide = DataGuide(doc)
    assert sum(node.count for node in guide.nodes()) == len(doc)


def test_may_match_positive(small_doc):
    guide = DataGuide(small_doc)
    assert guide.may_match(parse_pattern("//a//e"))
    assert guide.may_match(parse_pattern("//a[f]//d/e"))
    assert guide.may_match(parse_pattern("//b/c"))


def test_may_match_refutes_impossible(small_doc):
    guide = DataGuide(small_doc)
    assert not guide.may_match(parse_pattern("//e//a"))   # inverted
    assert not guide.may_match(parse_pattern("//a//zzz"))  # absent tag
    assert not guide.may_match(parse_pattern("//a/e"))     # e not a pc-child
    assert not guide.may_match(parse_pattern("//g//c"))    # wrong branch


QUERIES = [
    "//a//b", "//a/b", "//a[//b]//c", "//b/c//d", "//c//d//e",
    "//e//a", "//a/b/c", "//d[//e]//f",
]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 1_000), query_text=st.sampled_from(QUERIES))
def test_pruning_is_sound(seed, query_text):
    """may_match(q) == False must imply zero matches (never the reverse)."""
    doc = random_trees.generate(
        size=150, tags=list("abcdef"), max_depth=8, seed=seed
    )
    guide = DataGuide(doc)
    query = parse_pattern(query_text)
    if not guide.may_match(query):
        assert find_embeddings(doc, query) == []
    else:
        # Positive answers carry no guarantee; nothing to assert beyond
        # not crashing — but when matches exist, may_match MUST be True.
        pass


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 1_000), query_text=st.sampled_from(QUERIES))
def test_pruning_is_complete_for_matches(seed, query_text):
    doc = random_trees.generate(
        size=150, tags=list("abcdef"), max_depth=8, seed=seed
    )
    guide = DataGuide(doc)
    query = parse_pattern(query_text)
    if find_embeddings(doc, query):
        assert guide.may_match(query)


# -- derivation from commit deltas --------------------------------------------


def summary(guide: DataGuide) -> dict[tuple[str, ...], int]:
    """Every root path with its count, read off the summary nodes."""
    counts = {}
    stack = [(guide.root, ())]
    while stack:
        node, prefix = stack.pop()
        path = prefix + (node.tag,)
        counts[path] = node.count
        stack.extend((child, path) for child in node.children.values())
    return counts


def assert_derivation_matches_rebuild(doc, deltas):
    """After every delta the derived guide equals a full build of the
    new document; the guide it was derived from never changes."""
    guide, dropped = DataGuide(doc), 0
    for delta in deltas:
        change = apply_delta(doc, delta)
        outgoing = summary(guide)
        derived = guide.derived([change])
        assert summary(guide) == outgoing
        rebuilt = DataGuide(change.document)
        assert summary(derived) == summary(rebuilt)
        assert len(derived) == len(rebuilt)
        assert derived.document is change.document
        dropped += len(derived) < len(guide)
        guide, doc = derived, change.document
    return dropped


@pytest.mark.parametrize("seed", range(12))
def test_derived_equals_rebuild_on_random_trees(seed):
    doc = random_trees.generate(
        size=150, tags=list("abcdef"), max_depth=8, seed=seed
    )
    deltas, __ = random_update_sequence(doc, count=25, seed=seed)
    assert_derivation_matches_rebuild(doc, deltas)


def test_derivation_drops_paths_whose_last_instance_goes():
    doc = random_trees.generate(size=60, tags=list("abcdefgh"), seed=3)
    deltas, __ = random_update_sequence(doc, count=60, seed=3)
    assert assert_derivation_matches_rebuild(doc, deltas) > 0


@pytest.mark.parametrize("seed", [42, 7])
def test_derived_equals_rebuild_on_xmark(seed):
    doc = xmark.generate(scale=0.1, seed=seed)
    deltas, __ = random_update_sequence(doc, count=20, seed=seed)
    assert_derivation_matches_rebuild(doc, deltas)


@pytest.mark.parametrize("seed", range(4))
def test_one_derivation_over_a_whole_commit(seed):
    """A multi-delta commit derives in one call: each delete reads the
    document of the turn before it."""
    doc = random_trees.generate(size=120, seed=seed)
    deltas, final = random_update_sequence(doc, count=15, seed=seed)
    __, changes = apply_deltas(doc, deltas)
    guide = DataGuide(doc)
    outgoing = summary(guide)
    derived = guide.derived(changes)
    assert summary(derived) == summary(DataGuide(final))
    assert summary(guide) == outgoing
