"""Differential tests for the engines' columnar read path (DESIGN.md §8).

The packed-column substrate must be invisible to everything the paper
measures.  The engines run on raw column ints with mirrored accounting;
``tests/rowwise_reference.py`` runs the same engines over sources whose
every read decodes a record through the buffer pool.  These properties
assert the two produce byte-identical results — matches, match counts,
work counters and pager I/O statistics — across schemes, engines and
output modes, and that the three ``bisect_start`` access paths (column
probe, pool probe, B+-tree descent) land on the same index.

That includes the flush path: the engines buffer candidates as list
positions, and the reference resolves a position's labels from the
records its cursor and region scans already read — so a one-shot run, a
sink-streamed one and a run suspended and resumed at every driver step
(where both sides read the carried positions' entries again) must agree
on keys, counters and I/O as well.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.access import TagSource
from repro.algorithms.base import KEYS, Counters
from repro.algorithms.preempt import QuantumBudget
from repro.datasets import random_trees
from repro.storage.catalog import ViewCatalog
from repro.tpq.parser import parse_pattern
from tests.rowwise_reference import (
    ColumnarEngines,
    RowwiseEngines,
    PoolServedList,
    RowwiseSource,
)

# (query, covering views, engines) — mixed twig/path shapes so every
# engine and pointer kind gets exercised.
CASES = [
    (
        "//a[//f]//b[//c]//d//e",
        ["//a//f", "//b//c", "//d", "//e"],
        ("TS", "VJ"),
    ),
    ("//a[b]//c//d", ["//a/b", "//c//d"], ("TS", "VJ")),
    ("//a//b//d//e", ["//a//b", "//d//e"], ("TS", "PS", "VJ")),
    ("//a/b//c", ["//a//c", "//b"], ("TS", "PS", "VJ")),
]
SCHEMES = ("E", "LE", "LEp")


def io_of(result):
    return (
        result.io.logical_reads,
        result.io.physical_reads,
        result.io.pages_written,
    )


def resumed(engines, query, views, scheme, mode):
    """A ViewJoin run suspended after every driver step: the pages, the
    final counters and the I/O of every quantum."""
    pages, io, state = [], [], None
    while True:
        r, state = engines.evaluate_quantum(
            query, views, scheme, mode=mode, emit_matches=KEYS,
            budget=QuantumBudget(max_steps=1), state=state,
        )
        pages.extend(r.matches)
        io.append(io_of(r))
        if state is None:
            return pages, r.match_count, r.counters.as_dict(), io


def run_all(doc, case, mode, side):
    """Evaluate every engine × scheme combo on ``side``
    (``ColumnarEngines`` or ``RowwiseEngines``) over a catalog of its own; fingerprint
    all observables."""
    query_text, views_text, engines = case
    query = parse_pattern(query_text)
    views = [parse_pattern(v) for v in views_text]
    out = {}
    with ViewCatalog(doc) as catalog:
        run = side(catalog)
        for engine in engines:
            for scheme in SCHEMES:
                r = run.evaluate(query, views, engine, scheme, mode=mode)
                out[engine, scheme] = (
                    r.matches,
                    r.match_count,
                    r.counters.as_dict(),
                    io_of(r),
                )
                keyed = run.evaluate(
                    query, views, engine, scheme, mode=mode,
                    emit_matches=KEYS,
                )
                assert keyed.matches == r.match_keys()
                out[engine, scheme, "keys"] = (
                    keyed.matches, keyed.counters.as_dict(), io_of(keyed),
                )
                if engine == "PS":
                    continue  # PathStack has no sink
                batches: list = []
                streamed = run.evaluate(
                    query, views, engine, scheme, mode=mode,
                    emit_matches=KEYS, sink=batches.append,
                )
                assert sum(batches, []) == keyed.matches
                out[engine, scheme, "sink"] = (
                    batches, streamed.counters.as_dict(), io_of(streamed),
                )
                if engine == "VJ":
                    chain = resumed(run, query, views, scheme, mode)
                    assert chain[:3] == (
                        keyed.matches, r.match_count, r.counters.as_dict()
                    )
                    out[engine, scheme, "resumed"] = chain
    return out


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 10_000),
    case=st.sampled_from(CASES),
    mode=st.sampled_from(["memory", "disk"]),
)
def test_fast_path_identical_to_slow_path(seed, case, mode):
    doc = random_trees.generate(
        size=220, tags=list("abcdef"), max_depth=10, max_fanout=3, seed=seed
    )
    assert run_all(doc, case, mode, ColumnarEngines) == \
        run_all(doc, case, mode, RowwiseEngines)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_bisect_start_paths_agree(seed, data):
    """Column-backed, pool-backed and index-backed ``bisect_start`` return
    the same insertion point for arbitrary probe values."""
    doc = random_trees.generate(
        size=200, tags=list("ab"), max_depth=8, seed=seed
    )
    pattern = parse_pattern("//a")
    probes = data.draw(
        st.lists(st.integers(-2, 2 * 200 + 2), min_size=1, max_size=8)
    )
    with ViewCatalog(doc) as catalog:
        catalog.add(pattern, "E")
        view = catalog.get(pattern, "E")
        fast = TagSource(view, "a")
        assert fast.labels is fast.stored.columns is not None
        indexed = TagSource(view, "a")
        indexed.ensure_index()
        slow = RowwiseSource(view, "a", PoolServedList(fast.stored))
        for value in probes:
            landed = fast.bisect_start(value, Counters())
            assert landed == indexed.bisect_start(value, Counters())
            assert landed == slow.bisect_start(value, Counters())
