"""Flushing ``F`` a page at a time (DESIGN.md §6, deviation 7).

A partition that closes while the buffer holds less than a page of
candidates stays buffered and is enumerated together with its
successors.  The contract under test: a
paged run equals the run that flushes every closed partition (page
capacity 1, the paper's granularity and the parent commit's behaviour)
in its answer, the order of its answer and every work counter except
``flushes``; and it equals itself when suspended and resumed at any
boundary.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext

import pytest

import repro.algorithms.dag as dag_module
from repro.algorithms import engine
from repro.algorithms.preempt import STATE_VERSION, PlanState, QuantumBudget
from repro.datasets import random_trees
from repro.storage.catalog import ViewCatalog
from repro.storage.records import ElementEntry
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern
from repro.xmltree.document import DocumentBuilder
from tests.synthetic_lists import admit, buffer_over, page_capacity
from tests.test_enumeration import (
    TWIG,
    TWIG_VIEWS,
    keys_of,
    many_partitions_doc,
    work_of,
)

#: Candidates per page: the degenerate case, a page a few partitions
#: fill (so that small documents mix flushed and deferred closes), and
#: the real one (None).
CAPACITIES = (1, 5, None)
PAGE = dag_module.page_capacity(None)
SCHEMES = ("E", "LE", "LEp")
MODES = ("memory", "disk")

#: (query, covering view sets), twigs and paths.
CASES = [
    ("//a//b//c", [["//a", "//b", "//c"], ["//a//b", "//c"], ["//a", "//b//c"]]),
    ("//a[//b]//c", [["//a//c", "//b"], ["//a", "//b", "//c"]]),
    ("//a/b//c", [["//a//c", "//b"], ["//a/b", "//c"]]),
    ("//a[//b//c]//d", [["//a//d", "//b//c"], ["//a", "//b//c", "//d"]]),
    ("//b//c/d", [["//b//d", "//c"], ["//b", "//c/d"]]),
    ("//a//b[//c]//d", [["//a", "//b//c", "//d"], ["//a", "//b//d", "//c"]]),
]


def forest(seed: int, trees: int = 90):
    """Many small recursive subtrees under one root: hundreds of
    partitions for any root tag, same-tag nesting inside them."""
    rng = random.Random(seed)
    builder = DocumentBuilder(f"forest-{seed}")

    def grow(depth: int) -> None:
        with builder.element(rng.choice("abcd")):
            if depth < 5:
                for _ in range(rng.randint(0, 3)):
                    grow(depth + 1)

    with builder.element("r"):
        for _ in range(trees):
            grow(0)
    return builder.build()


def recursive_docs():
    """Documents on which a candidate admitted with its parent's subtree
    (Function 2's top-down cascade) ends after its partition's root and
    contains later entries.  Left in the buffer, such a closed candidate
    answers ``open_ancestor`` for entries of the next partition (seed
    16 admitted 27 candidates instead of 26 on ``//a//b//c``, seed 18
    also took one pointer jump less and skipped two entries fewer) and
    swallows the extension fetches of the candidates nested in it (seed
    290 scanned 190 elements instead of 194 on ``//a//b[//c]//d``) — so
    a partition holding one is flushed as it closes."""
    yield random_trees.generate(
        size=250, tags=list("abcd"), max_depth=8, max_fanout=3, seed=16
    )
    yield random_trees.generate(
        size=250, tags=list("abc"), max_depth=4, max_fanout=6, seed=18
    )
    yield random_trees.generate(
        size=250, tags=list("abc"), max_depth=12, max_fanout=2, seed=28
    )
    yield random_trees.generate(
        size=300, tags=list("abcd"), max_depth=10, max_fanout=2, seed=290
    )
    yield forest(3)


def at(capacity):
    """Buffers built inside flush at ``capacity`` candidates; None
    leaves the real page capacity in place."""
    return nullcontext() if capacity is None else page_capacity(capacity)


def evaluate_at(capacity, *args, **kwargs):
    with at(capacity):
        return engine.evaluate(*args, **kwargs)


def engines_for(query):
    return ("TS", "VJ", "PS") if query.is_path() else ("TS", "VJ")


# -- engines x schemes x modes: every capacity is the per-partition run --------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_paged_run_equals_one_flush_per_partition(scheme, mode):
    compared = deferred = 0
    for doc in recursive_docs():
        with ViewCatalog(doc) as catalog:
            for query_text, view_sets in CASES:
                query = parse_pattern(query_text)
                if not set(query.tags()) <= set(doc.tags()):
                    continue
                truth = keys_of(find_embeddings(doc, query))
                for view_texts in view_sets:
                    views = [parse_pattern(text) for text in view_texts]
                    for algorithm in engines_for(query):
                        if mode == "memory":
                            # warm the pool: physical reads are compared
                            engine.evaluate(
                                query, catalog, views, algorithm, scheme,
                                emit_matches=False,
                            )
                        runs = [
                            evaluate_at(
                                capacity, query, catalog, views, algorithm,
                                scheme, mode=mode,
                            )
                            for capacity in CAPACITIES
                        ]
                        each = runs[0]
                        assert keys_of(each.matches) == truth
                        for capacity, paged in zip(CAPACITIES[1:], runs[1:]):
                            where = (doc.name, query_text, view_texts,
                                     algorithm, capacity)
                            assert paged.matches == each.matches, where
                            assert work_of(paged) == work_of(each), where
                            assert (
                                paged.counters.flushes <= each.counters.flushes
                            ), where
                            assert paged.peak_buffer_entries <= (
                                each.peak_buffer_entries
                                + (capacity or PAGE) - 1
                            ), where
                            if mode == "memory":
                                assert (
                                    paged.io.logical_reads,
                                    paged.io.physical_reads,
                                ) == (
                                    each.io.logical_reads,
                                    each.io.physical_reads,
                                ), where
                            compared += 1
                            deferred += (
                                paged.counters.flushes < each.counters.flushes
                            )
    assert compared > 100 and deferred > compared // 2  # the test bites


def test_a_closed_partition_waits_unless_it_overhangs_or_fills_a_page():
    query = parse_pattern("//a//b")

    def partition(dag, start, b_end=None):
        """``a(start, start + 10)`` holding one ``b``, which ends inside
        it unless told otherwise."""
        root = ElementEntry(start, start + 10, 0)
        dag.enter_root(root)
        admit(dag, "a", root)
        admit(dag, "b", ElementEntry(start + 1, b_end or start + 2, 1))

    # contained in its root: stays, and lies below every later probe
    dag = buffer_over(query)
    partition(dag, 0)
    partition(dag, 20)
    assert dag.counters.flushes == 0 and dag.buffered_entries == 4
    assert dag.save_state() == (30, {"a": [0, 1], "b": [0, 1]})
    assert not dag.open_ancestor("a", 31, 32)
    assert dag.max_buffered_end("a") == 30 and dag.open_ancestor("a", 22, 23)
    dag.flush()
    assert dag.counters.flushes == 1  # both partitions, document order
    assert keys_of(dag.result().matches) == [(0, 1), (20, 21)]
    assert dag.peak_entries == 4

    # a candidate admitted with its parent's subtree that ends after the
    # partition's root would answer probes of the next partition: no wait
    dag = buffer_over(query)
    partition(dag, 0, b_end=40)
    assert dag.open_ancestor("b", 25, 26)
    dag.enter_root(ElementEntry(20, 30, 0))
    assert dag.counters.flushes == 1 and dag.buffered_entries == 0
    assert not dag.open_ancestor("b", 25, 26)

    # a page of candidates: flushed by the root that closes the last one
    with page_capacity(4):
        dag = buffer_over(query)
    for start in (0, 20, 40, 60, 80):
        partition(dag, start)
    assert dag.counters.flushes == 2 and dag.buffered_entries == 2
    assert keys_of(dag.result().matches) == [(0, 1), (20, 21), (40, 41), (60, 61)]


# -- sink: one batch per flush ---------------------------------------------------

@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("mode", MODES)
def test_sink_gets_one_batch_per_flush(capacity, mode):
    doc = many_partitions_doc(600)
    with ViewCatalog(doc) as catalog:
        one = evaluate_at(
            capacity, TWIG, catalog, TWIG_VIEWS, "VJ", "LEp", mode=mode
        )
        batches: list[list] = []
        streamed = evaluate_at(
            capacity, TWIG, catalog, TWIG_VIEWS, "VJ", "LEp", mode=mode,
            sink=batches.append,
        )
    assert len(batches) == one.counters.flushes > 1
    assert [match for batch in batches for match in batch] == one.matches
    assert streamed.counters.as_dict() == one.counters.as_dict()
    if capacity is None:
        # each batch but the last drains at least a page of candidates
        assert len(batches) <= one.counters.candidates_added // PAGE + 1


# -- suspend / resume: every boundary, every capacity ---------------------------------

def held_positions(payload: dict) -> int:
    return sum(
        len(positions)
        for key in ("buffered", "pools")
        for __, positions in payload[key]
    )


def run_chain(capacity, catalog, query, views, scheme, mode, budget):
    """A preemptible run driven to completion one quantum at a time, its
    state JSON-round-tripped at every boundary.  Returns the pages, the
    last result and every payload the chain carried."""
    state = None
    pages: list = []
    payloads: list[dict] = []
    while True:
        with at(capacity):
            result, state = engine.evaluate_quantum(
                query, catalog, views, "VJ", scheme, mode=mode,
                budget=budget, state=state,
            )
        pages.extend(result.matches)
        if state is None:
            return pages, result, payloads
        assert len(payloads) < 20_000, "preemptible run failed to terminate"
        payloads.append(json.loads(json.dumps(state.to_payload())))
        state = PlanState.from_payload(payloads[-1])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_boundary_resumes_byte_identical_at_every_capacity(scheme, mode):
    doc = forest(5, trees=40)
    for query_text, view_texts in (
        ("//a[//b]//c", ["//a//c", "//b"]),
        ("//a//b//c", ["//a", "//b", "//c"]),
    ):
        query = parse_pattern(query_text)
        views = [parse_pattern(text) for text in view_texts]
        with ViewCatalog(doc) as catalog:
            ones, carried = [], []
            for capacity in CAPACITIES:
                one = evaluate_at(
                    capacity, query, catalog, views, "VJ", scheme, mode=mode
                )
                ones.append(one)
                for steps in (1, 3):
                    pages, last, payloads = run_chain(
                        capacity, catalog, query, views, scheme, mode,
                        QuantumBudget(max_steps=steps),
                    )
                    assert pages == one.matches
                    assert last.match_count == one.match_count
                    assert last.counters.as_dict() == one.counters.as_dict()
                    assert last.peak_buffer_entries == one.peak_buffer_entries
                carried.append(max(map(held_positions, payloads)))
            # suspended with closed partitions waiting
            assert carried[0] <= carried[1] <= carried[2] > carried[0]
            assert ones[0].match_count > 0
            assert ones[0].counters.flushes > ones[2].counters.flushes
            for paged in ones[1:]:
                assert paged.matches == ones[0].matches
                assert work_of(paged) == work_of(ones[0])


def test_q14_shaped_chain_and_its_token_bound():
    """Suspended at every driver step, a run over hundreds of tiny
    partitions resumes byte-identically, at the snapshot version it
    always had; what a token carries beyond the per-partition run's is
    the closed partitions, less than a page of positions."""
    assert STATE_VERSION == 3
    doc = many_partitions_doc(900)
    budget = QuantumBudget(max_steps=1)
    with ViewCatalog(doc) as catalog:
        one = engine.evaluate(TWIG, catalog, TWIG_VIEWS, "VJ", "LEp")
        pages, last, paged = run_chain(
            None, catalog, TWIG, TWIG_VIEWS, "LEp", "memory", budget
        )
        __, each_last, each = run_chain(
            1, catalog, TWIG, TWIG_VIEWS, "LEp", "memory", budget
        )
    assert pages == one.matches
    assert last.counters.as_dict() == one.counters.as_dict()
    assert work_of(each_last) == work_of(one)
    assert len(paged) == len(each) > 300  # the same steps, one token each
    largest = max(map(held_positions, each))
    assert largest < 20  # one tiny partition
    assert PAGE <= max(map(held_positions, paged)) <= largest + PAGE - 1
    # a position is at most five digits, a comma and a space here
    assert max(len(json.dumps(payload)) for payload in paged) <= (
        max(len(json.dumps(payload)) for payload in each) + 7 * PAGE
    )


# -- disk mode: the spill is written in pages ---------------------------------------

@pytest.mark.parametrize("algorithm,view_texts", [
    ("TS", ["//a//c", "//b//d"]),
    ("VJ", ["//a", "//b", "//c", "//d"]),  # every tag in Q': all admitted
])
def test_disk_mode_spills_pages_not_partitions(algorithm, view_texts):
    doc = many_partitions_doc(600)
    views = [parse_pattern(text) for text in view_texts]
    with ViewCatalog(doc) as catalog:
        paged = engine.evaluate(TWIG, catalog, views, algorithm, "E", mode="disk")
        each = evaluate_at(
            1, TWIG, catalog, views, algorithm, "E", mode="disk"
        )
        resident = engine.evaluate(TWIG, catalog, views, algorithm, "E")
    spilled = paged.io.pages_written - resident.io.pages_written
    candidates = paged.counters.candidates_added
    tags = len(TWIG.tags())
    assert 0 < spilled <= -(-candidates // PAGE) + paged.counters.flushes * tags
    # per partition: at least a page for the root tag, every time
    assert each.io.pages_written - resident.io.pages_written >= (
        each.counters.flushes
    )
    assert paged.matches == each.matches == resident.matches
