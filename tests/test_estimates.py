"""List-size source tests: document statistics, the independence
estimate and the exact source (selection on top of them is in
``test_selection.py``; the measured-first source in
``test_online_advisor.py``)."""

from __future__ import annotations

import pytest

from repro.datasets import random_trees
from repro.selection import DocumentStatistics, ExactSizes
from repro.selection import estimates
from repro.tpq.matching import solution_nodes
from repro.tpq.parser import parse_pattern


@pytest.fixture(scope="module")
def doc():
    return random_trees.generate(
        size=400, tags=list("abcde"), max_depth=9, seed=3
    )


@pytest.fixture(scope="module")
def stats(doc):
    return DocumentStatistics.collect(doc)


def test_tag_counts_exact(doc, stats):
    for tag in doc.tags():
        assert stats.count(tag) == doc.tag_count(tag)
    assert stats.total_nodes == len(doc)


def test_with_ancestor_exact(doc, stats):
    expected = sum(
        1
        for node in doc.tag_list("b")
        if any(anc.tag == "a" for anc in doc.ancestors(node))
    )
    assert stats.with_ancestor.get(("b", "a"), 0) == expected


def test_with_descendant_exact(doc, stats):
    expected = sum(
        1
        for node in doc.tag_list("a")
        if doc.descendants_by_tag(node, "b")
    )
    assert stats.with_descendant.get(("a", "b"), 0) == expected


def test_probabilities_bounded(stats):
    for (tag, other), __ in list(stats.with_ancestor.items())[:20]:
        assert 0.0 <= stats.p_has_ancestor(tag, other) <= 1.0
    assert stats.p_has_ancestor("zzz", "a") == 0.0
    assert stats.p_has_descendant("zzz", "a") == 0.0


def test_single_node_view_estimate_exact(doc, stats):
    view = parse_pattern("//a")
    assert stats.list_size(view, "a") == doc.tag_count("a")


def test_estimates_within_factor_of_truth(doc, stats):
    """Independence is approximate; on random trees the estimate should
    land within a small factor of the true list size for simple views."""
    for text in ["//a//b", "//a//b//c", "//b[//c]//d"]:
        view = parse_pattern(text)
        truth = solution_nodes(doc, view)
        for tag in view.tags():
            true_size = len(truth[tag])
            estimated = stats.list_size(view, tag)
            if true_size == 0:
                continue
            assert estimated > 0
            ratio = estimated / true_size
            assert 0.2 < ratio < 5.0, (text, tag, estimated, true_size)


def test_exact_sizes_match_solution_nodes_one_pass_per_view(
    doc, monkeypatch
):
    calls = []

    def counting(document, view):
        calls.append(view.to_xpath())
        return solution_nodes(document, view)

    monkeypatch.setattr(estimates, "solution_nodes", counting)
    exact = ExactSizes(doc)
    for text in ["//a//b", "//b[//c]//d"]:
        view = parse_pattern(text)
        truth = solution_nodes(doc, view)
        for __ in range(2):
            for tag in view.tags():
                assert exact.list_size(view, tag) == len(truth[tag])
    assert calls == ["//a//b", "//b[//c]//d"]
