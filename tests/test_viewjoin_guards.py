"""Counterexamples behind the ViewJoin safety guards (DESIGN.md §6).

Each test disables one guard that tightens the paper's pseudocode and
shows the engine then loses matches on recursive (same-tag-nested) data,
proving the guard is load-bearing — and that with the guard enabled the
result is exact.
"""

from __future__ import annotations

import importlib

import pytest

import repro.algorithms.dag as dag_module
from repro.algorithms.engine import evaluate

# `repro.algorithms` re-exports the `viewjoin` function under the module's
# name, so the module object must be fetched explicitly.
viewjoin_module = importlib.import_module("repro.algorithms.viewjoin")
from repro.datasets import random_trees
from repro.storage.catalog import ViewCatalog
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern
from tests.synthetic_lists import page_capacity

TWIG = parse_pattern("//a[//f]//b[//c]//d//e")
TWIG_VIEWS = [
    parse_pattern("//a//f"),
    parse_pattern("//b//c"),
    parse_pattern("//d"),
    parse_pattern("//e"),
]

# A chain whose middle tag has a parent *inside its own view*, making its
# following pointers ancestor-constrained (the unsafe-jump scenario).
CHAIN = parse_pattern("//x//a//f")
CHAIN_VIEWS = [parse_pattern("//x//a"), parse_pattern("//f")]


def truth_keys(doc, query):
    return sorted(
        tuple(n.start for n in m) for m in find_embeddings(doc, query)
    )


def run_viewjoin(doc, query, views):
    with ViewCatalog(doc) as catalog:
        return evaluate(query, catalog, views, "VJ", "LE").match_keys()


@pytest.fixture
def recursive_twig_doc():
    return random_trees.generate(
        size=350, tags=list("abcdef"), max_depth=11, max_fanout=3, seed=0
    )


@pytest.fixture
def recursive_chain_doc():
    return random_trees.generate(
        size=350, tags=list("xaf"), max_depth=11, max_fanout=3, seed=0
    )


def test_refresh_guard_is_load_bearing(recursive_twig_doc, monkeypatch):
    """Disabling the buffered-ancestor check before child-pointer cursor
    refreshes (Function 4) makes ViewJoin skip entries that still pair
    with buffered ancestors — matches are lost."""
    expected = truth_keys(recursive_twig_doc, TWIG)
    assert run_viewjoin(recursive_twig_doc, TWIG, TWIG_VIEWS) == expected

    monkeypatch.setattr(
        dag_module.DagBuffer, "max_buffered_end", lambda self, tag: -1
    )
    unguarded = run_viewjoin(recursive_twig_doc, TWIG, TWIG_VIEWS)
    assert len(unguarded) < len(expected)


def test_constrained_following_jumps_unsafe(recursive_chain_doc,
                                            monkeypatch):
    """Following pointers of a view node *with* a view-parent are
    restricted to the same lowest-ancestor group (Section III-A); jumping
    them during skipping hops over live entries of other groups."""
    expected = truth_keys(recursive_chain_doc, CHAIN)
    assert run_viewjoin(recursive_chain_doc, CHAIN, CHAIN_VIEWS) == expected

    original_init = viewjoin_module._ViewJoinRun.__init__

    def unguarded_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._unconstrained = set(self.seg.retained)

    monkeypatch.setattr(
        viewjoin_module._ViewJoinRun, "__init__", unguarded_init
    )
    unguarded = run_viewjoin(recursive_chain_doc, CHAIN, CHAIN_VIEWS)
    assert len(unguarded) < len(expected)


def test_sol_short_circuit_unsafe(monkeypatch):
    """The paper's Function 3 line 1 returns a cached segment-root solution
    without recursing into child segments.  Reinstating that short-circuit
    loses matches: smaller pending solutions in child segments stay hidden
    until the partition has already been flushed (the regression that
    motivated DESIGN.md §6 item 2).

    The loss needs the late solution and its partition in two flushes.
    On this 400-node document every partition is far smaller than a
    page, so the paged flush enumerates the late solution together with
    the closed partition it belongs to and masks the bug; at one flush
    per partition it shows."""
    doc = random_trees.generate(
        size=400, tags=list("abcdef"), max_depth=11, max_fanout=3, seed=2
    )
    expected = truth_keys(doc, TWIG)
    assert run_viewjoin(doc, TWIG, TWIG_VIEWS) == expected
    with page_capacity(1):
        assert run_viewjoin(doc, TWIG, TWIG_VIEWS) == expected

    original = viewjoin_module._ViewJoinRun._get_next

    def short_circuiting(self, segment):
        root_cursor = self.cursors[segment.root_tag]
        if (
            not segment.is_leaf
            and self.sol.get(segment.root_tag) == root_cursor.position
            and not root_cursor.exhausted
        ):
            return (segment.root_tag, root_cursor.start)
        return original(self, segment)

    monkeypatch.setattr(
        viewjoin_module._ViewJoinRun, "_get_next", short_circuiting
    )
    assert run_viewjoin(doc, TWIG, TWIG_VIEWS) == expected  # masked
    with page_capacity(1):
        unguarded = run_viewjoin(doc, TWIG, TWIG_VIEWS)
    assert len(unguarded) < len(expected)


def test_guards_do_not_fire_on_recursion_free_data():
    """On recursion-free documents (distinct tags never nest), the guarded
    and paper-literal behaviours coincide: the guard condition never holds,
    so ViewJoin still takes every pointer jump the paper describes."""
    doc = random_trees.generate(
        size=300, tags=list("abcdef"), max_depth=7, max_fanout=4, seed=1
    )
    expected = truth_keys(doc, TWIG)
    with ViewCatalog(doc) as catalog:
        result = evaluate(TWIG, catalog, TWIG_VIEWS, "VJ", "LE")
    assert result.match_keys() == expected
