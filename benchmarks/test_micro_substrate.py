"""Micro-benchmarks for the storage substrate.

Per-operation costs of the building blocks every engine sits on: record
codecs, list reads and cursor advancement (served from packed columns,
and — for comparison — through the pool-served reference reader of
``tests/rowwise_reference.py``), the engines' ``CountingCursor`` over the
columns, B+-tree descent, the positional DAG buffer's admit-and-flush
and the match enumerator — plus three steps of a durable commit:
serializing the document, applying one delta to it, and a SHIFT repair
of one view list — and the two halves of opening a store: parsing its
``document.xml`` and attaching its LE_p view lists.  These establish
the unit costs behind the macro benchmarks' wall-clock numbers (and
catch substrate regressions early).
"""

from __future__ import annotations

import gc

import pytest

from repro.algorithms.access import build_sources
from repro.algorithms.base import KEYS, Counters, CountingCursor
from repro.algorithms.dag import DagBuffer, page_capacity
from repro.datasets import random_trees
from repro.maintenance.apply import apply_delta
from repro.maintenance.deltas import DeleteSubtree, InsertSubtree, RenameTag
from repro.storage.btree import BPlusTreeIndex
from repro.storage.catalog import ViewCatalog, materialize
from repro.storage.lists import StoredList
from repro.storage.pager import Pager
from repro.storage.persistence import load_catalog, save_catalog
from repro.storage.records import (
    ElementEntry,
    LinkedEntry,
    element_codec,
    compact_linked_codec,
    linked_codec,
)
from repro.tpq.enumeration import enumerate_matches
from repro.tpq.matching import solution_nodes
from repro.tpq.parser import parse_pattern
from repro.workloads import xmark as xmark_queries
from repro.xmltree.document import DocumentBuilder
from repro.xmltree.parser import parse_xml_file
from repro.xmltree.writer import write_xml_file
from tests.collector_probe import collections_started, started_inside_take
from tests.rowwise_reference import PoolServedList

N = 2000


@pytest.fixture(scope="module")
def element_list():
    stored = StoredList(Pager(), element_codec(), name="micro")
    stored.extend(ElementEntry(i * 3, i * 3 + 2, 1) for i in range(N))
    return stored.finalize()


@pytest.fixture(scope="module")
def reference_list(element_list):
    """The same pages through the reference reader: pool-served decode."""
    return PoolServedList(element_list)


def test_bench_element_codec_roundtrip(benchmark):
    codec = element_codec()
    entry = ElementEntry(12345, 67890, 7)

    def run():
        return codec.decode(codec.encode(entry))

    assert benchmark(run) == entry


def test_bench_linked_codec_roundtrip(benchmark):
    codec = linked_codec(2)
    entry = LinkedEntry(1, 2, 3, 7, -1, (9, -1))

    def run():
        return codec.decode(codec.encode(entry))

    assert benchmark(run) == entry


def test_bench_compact_codec_roundtrip(benchmark):
    codec = compact_linked_codec(2)
    entry = LinkedEntry(1, 2, 3, 7, -2, (9, -1))

    def run():
        return codec.decode(codec.encode(entry))[0]

    assert benchmark(run) == entry


def test_bench_columnar_scan(benchmark, element_list):
    def run():
        total = 0
        for entry in element_list.scan():
            total += entry.start
        return total

    assert benchmark(run) > 0


def test_bench_cursor_advance(benchmark, element_list):
    def run():
        cursor = element_list.cursor()
        count = 0
        while cursor.current is not None:
            count += 1
            cursor.advance()
        return count

    assert benchmark(run) == N


def test_bench_reference_reader_scan(benchmark, reference_list):
    def run():
        total = 0
        for entry in reference_list.scan():
            total += entry.start
        return total

    assert benchmark(run) > 0


def test_bench_reference_reader_cursor(benchmark, reference_list):
    def run():
        cursor = reference_list.cursor()
        count = 0
        while cursor.current is not None:
            count += 1
            cursor.advance()
        return count

    assert benchmark(run) == N


def _drain_counting(stored: StoredList) -> int:
    counters = Counters()
    cursor = CountingCursor(stored, counters)
    while not cursor.exhausted:
        cursor.advance()
    return counters.elements_scanned


def test_bench_counting_cursor_columnar(benchmark, element_list):
    """The engines' hot loop: CountingCursor advancement on raw ints."""
    assert benchmark(_drain_counting, element_list) == N


def test_bench_btree_descent(benchmark, element_list):
    index = BPlusTreeIndex.build(
        element_list.pager, [i * 3 for i in range(N)]
    )

    def run():
        return index.first_geq(N * 3 // 2)

    assert benchmark(run) is not None


def test_bench_solution_nodes(benchmark):
    doc = random_trees.generate(
        size=1500, tags=list("abcd"), max_depth=9, seed=5
    )
    pattern = parse_pattern("//a[//b]//c")

    def run():
        return sum(len(v) for v in solution_nodes(doc, pattern).values())

    assert benchmark(run) >= 0


def test_bench_enumeration(benchmark):
    doc = random_trees.generate(
        size=1500, tags=list("abcd"), max_depth=9, seed=5
    )
    pattern = parse_pattern("//a//b//c")
    sols = solution_nodes(doc, pattern)

    def run():
        return len(enumerate_matches(pattern, sols))

    assert benchmark(run) >= 0


def _one_partition(xpath: str, leaves: dict[str, int], emit_matches=True):
    """A callable that builds a fresh DAG buffer holding one partition,
    ready to flush: one ``a`` root over ``leaves[tag]`` leaves of each
    tag, on an LEp view of ``xpath``, every entry admitted by position
    from its cursor."""
    builder = DocumentBuilder("partition")
    with builder.element("r"):
        with builder.element("a"):
            for tag, count in leaves.items():
                for _ in range(count):
                    builder.leaf(tag)
    query = parse_pattern(xpath)
    view = materialize(builder.build(), query, "LEp")
    sources = build_sources(query, [view], [query])

    def admitted() -> DagBuffer:
        counters = Counters()
        dag = DagBuffer(query, counters, sources, emit_matches=emit_matches)
        cursors = {
            tag: sources[tag].cursor(counters) for tag in query.tags()
        }
        dag.enter_root(cursors["a"])
        for tag, cursor in cursors.items():
            while not cursor.exhausted:
                dag.add(tag, cursor.position, cursor.start, cursor.end)
                cursor.advance()
        return dag

    return admitted


def _flushed(dag: DagBuffer) -> int:
    dag.flush()
    return len(dag.matches)


@pytest.mark.parametrize("candidates", [10, 1000])
def test_bench_admit_and_flush_partition(benchmark, candidates):
    """One partition through the DAG buffer on an LEp view: every entry
    admitted by position from its cursor, then flushed to entry-form
    matches.  Ten candidates is the per-flush constant (XMark Q14 flushes
    375 such partitions), a thousand the per-candidate cost."""
    admitted = _one_partition("//a//b", {"b": candidates - 1})
    assert benchmark(lambda: _flushed(admitted())) == candidates - 1


@pytest.mark.parametrize("emit", [True, KEYS])
def test_bench_flush_heavy_partition_collector_on(benchmark, emit):
    """One root over a 224 x 224 product — the shape of the heavy XMark
    queries (Q8 / Q9 / Q11: one ``//site`` partition, a product at the
    root, 51 200-56 880 matches from a few hundred candidates) — flushed
    to entry-form and to key-form matches **with the cyclic collector
    on** inside the benched callable (admission is each round's set-up,
    outside the timing).

    CI runs this file under ``--benchmark-disable-gc``, which is why no
    micro ever showed what the collector cost a heavy query (two thirds
    of it: DESIGN.md §17, "The collector is a layer"): one tuple per
    match trips the young threshold 70-odd times per flush, and every
    pass walks tuples that cannot be garbage.  So the callable switches
    the collector on itself, whatever the flag says, and puts it back as
    it found it; the probe asserts that no collection starts inside
    ``Enumeration.take`` — and that some did outside it, i.e. that the
    collector really was on."""
    side = 224
    admitted = _one_partition("//a[//b]//c", {"b": side, "c": side}, emit)

    def flush_collector_on(dag: DagBuffer) -> int:
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            return _flushed(dag)
        finally:
            if not was_enabled:
                gc.disable()

    was_enabled = gc.isenabled()
    with collections_started() as started:
        flushed = benchmark.pedantic(
            flush_collector_on, setup=lambda: ((admitted(),), {}), rounds=9
        )
    assert flushed == side * side
    assert gc.isenabled() is was_enabled
    assert started
    assert started_inside_take(started) == []


def test_bench_admit_and_flush_many_partitions(benchmark):
    """375 partitions of ten candidates — XMark Q14's shape — through
    the DAG buffer: each closes as the next root arrives and is flushed
    with its neighbours a page of candidates at a time, so the per-flush
    constant is paid a dozen times, not 375."""
    partitions, size = 375, 10
    builder = DocumentBuilder("partitions")
    with builder.element("r"):
        for _ in range(partitions):
            with builder.element("a"):
                for _ in range(size - 1):
                    builder.leaf("b")
    query = parse_pattern("//a//b")
    view = materialize(builder.build(), query, "LEp")
    sources = build_sources(query, [view], [query])

    def run():
        counters = Counters()
        dag = DagBuffer(query, counters, sources)
        roots = sources["a"].cursor(counters)
        leaves = sources["b"].cursor(counters)
        while not roots.exhausted:
            dag.enter_root(roots)
            dag.add("a", roots.position, roots.start, roots.end)
            end = roots.end
            roots.advance()
            while leaves.start < end:
                dag.add("b", leaves.position, leaves.start, leaves.end)
                leaves.advance()
        dag.flush()
        return counters.flushes, len(dag.matches)

    flushes, matches = benchmark(run)
    assert matches == partitions * (size - 1)
    assert 1 < flushes <= -(-partitions * size // page_capacity(None)) + 1


def test_bench_write_xml_file(benchmark, xmark_doc, tmp_path):
    """The document as a commit writes it: one pass over the columns,
    a chunk of lines per ``write``."""
    path = tmp_path / "document.xml"
    benchmark(write_xml_file, xmark_doc, path)
    assert len(parse_xml_file(path)) == len(xmark_doc)


def test_bench_parse_xml_file(benchmark, xmark_doc, tmp_path):
    """A saved document read back: the regex token loop appending the
    columns, as every store attach does first."""
    path = tmp_path / "document.xml"
    write_xml_file(xmark_doc, path)
    parsed = benchmark(parse_xml_file, path)
    assert parsed.columns == xmark_doc.columns


def test_bench_load_catalog(benchmark, xmark_doc, tmp_path):
    """Attaching a saved store of every XMark query's views in LE_p: the
    document parse plus each slotted list's pages decoded in bulk."""
    store = tmp_path / "store"
    with ViewCatalog(xmark_doc) as catalog:
        for spec in xmark_queries.ALL_QUERIES:
            for view in spec.views:
                catalog.add(view, "LEp")
        save_catalog(catalog, store)
        expected = {
            (info.pattern.to_xpath(), tag): stored.columns.fields
            for info in catalog.views()
            for tag, stored in info.view.lists.items()
        }

    def run():
        attached = load_catalog(store)
        attached.close()
        return attached

    attached = benchmark(run)
    assert {
        (info.pattern.to_xpath(), tag): stored.columns.fields
        for info in attached.views()
        for tag, stored in info.view.lists.items()
    } == expected


def _middle_deltas(document):
    """One delta of each kind at the node halfway through the document,
    so every relabelling shift moves half of the columns."""
    middle = document.nodes[len(document) // 2]
    return {
        "insert": InsertSubtree(
            parent_start=middle.start, position=0,
            rows=(("bidder", 0), ("date", 1), ("increase", 1)),
        ),
        "delete": DeleteSubtree(root_start=middle.start),
        "rename": RenameTag(node_start=middle.start, new_tag="renamed"),
    }


def test_bench_materialize_lep_view(benchmark, xmark_doc):
    """An LE_p view built as its lists' columns, the slotted pages written
    from them; no page is decoded back."""
    view = benchmark(materialize, xmark_doc, parse_pattern("//item//text"),
                     "LEp")
    assert len(view.lists["text"].columns) == len(view.lists["text"])


def test_bench_slotted_shift(benchmark, xmark_doc):
    """A SHIFT repair of one LE_p slotted list at the middle insert's cut:
    the clone's columns derived from the parent's, and every page copied
    to a fresh id, the ones whose labels moved re-packed from the
    columns.  Rounds are fixed because each one allocates the list's
    pages again."""
    view = materialize(xmark_doc, parse_pattern("//item//text"), "LEp")
    stored = view.lists["text"]
    applied = apply_delta(xmark_doc, _middle_deltas(xmark_doc)["insert"])
    cut, amount = applied.shift_start, applied.shift_amount
    clone = benchmark.pedantic(stored.shifted, args=(((cut, amount),),),
                               rounds=20)
    assert list(clone.columns.starts) == [
        start + amount if start >= cut else start
        for start in stored.columns.starts
    ]


@pytest.mark.parametrize("kind", ["insert", "delete", "rename"])
def test_bench_apply_delta(benchmark, xmark_doc, kind):
    """One delta against a generated document: column slices, shifted
    runs and the new document's validation."""
    delta = _middle_deltas(xmark_doc)[kind]
    applied = benchmark(apply_delta, xmark_doc, delta)
    if kind == "delete":
        first, last = applied.deleted_range  # two labels per element
        expected = len(xmark_doc) - (last - first + 1) // 2
    else:
        expected = len(xmark_doc) + len(getattr(delta, "rows", ()))
    assert len(applied.document) == expected
