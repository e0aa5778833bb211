"""The one-pass XML writer against the recursive reference writer.

``repro.xmltree.writer`` walks the document's level and tag columns
once, in document order, looks each line up in a (level, tag) table it
fills on first use, and hands lines to the file at most ``CHUNK_LINES``
per ``write``.  The recursive writer it replaced
(``tests/object_document_reference.py``) is the reference: the output
must be byte-identical at every indent, on random trees, on XMark, on a
document with more distinct tags than the line tables keep, and on
chains far deeper than the interpreter's recursion limit — the depth at
which the recursive writer failed, and with it every ``save_catalog`` /
``commit_store`` of such a document.
"""

from __future__ import annotations

import hashlib
import io
import random
import shutil
import sys

import pytest

from repro.datasets import random_trees, xmark
from repro.maintenance import InsertSubtree
from repro.service import QueryService
from repro.storage.catalog import ViewCatalog
from repro.storage.persistence import save_catalog
from repro.tpq.naive import find_embeddings
from repro.tpq.parser import parse_pattern
from repro.xmltree.document import document_from_tuples
from repro.xmltree.parser import parse_xml, parse_xml_file
from repro.xmltree.writer import (
    CHUNK_LINES,
    _write,
    write_xml,
    write_xml_file,
)
from tests.object_document_reference import (
    object_document,
    write_xml_recursive,
)

DEPTH = 10_000

#: Depth of the deepest chain: five times :data:`DEPTH`, written unindented
#: (indented, its padding alone would be gigabytes).
DEEPEST = 50_000


class HashingSink:
    """A write-only text handle that keeps a digest and per-call sizes,
    not the text (a deep document at indent 3 is ~300 MB of padding)."""

    def __init__(self):
        self._digest = hashlib.sha256()
        self.calls: list[int] = []
        self.newlines: list[int] = []

    def write(self, text: str) -> int:
        self._digest.update(text.encode())
        self.calls.append(len(text))
        self.newlines.append(text.count("\n"))
        return len(text)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def reference_digest(document, indent: int) -> str:
    sink = HashingSink()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, document.max_depth() + 1_000))
    try:
        write_xml_recursive(object_document(document), sink, indent)
    finally:
        sys.setrecursionlimit(limit)
    return sink.hexdigest()


def columnar_sink(document, indent: int) -> HashingSink:
    sink = HashingSink()
    _write(document, sink, indent)
    return sink


def deep_chain(depth: int = DEPTH):
    return document_from_tuples(
        [("a" if level % 2 else "b", level) for level in range(depth)],
        name="deep",
    )


def lines_of(document) -> int:
    """Tag lines the writer emits: one per node plus one per close tag."""
    start, end = document.columns.start, document.columns.end
    inner = sum(
        1 for i in range(len(start) - 1) if start[i + 1] < end[i]
    )
    return len(start) + inner


@pytest.mark.parametrize("indent", [0, 2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_byte_identical_to_recursive_writer_on_random_trees(seed, indent):
    doc = random_trees.generate(size=150 + 40 * seed, max_depth=9, seed=seed)
    assert columnar_sink(doc, indent).hexdigest() == reference_digest(
        doc, indent
    )


@pytest.mark.parametrize("indent", [0, 2, 3])
def test_byte_identical_to_recursive_writer_on_xmark(indent):
    doc = xmark.generate(scale=0.5, seed=42)
    assert columnar_sink(doc, indent).hexdigest() == reference_digest(
        doc, indent
    )


@pytest.mark.parametrize("indent", [0, 2, 3])
def test_byte_identical_to_recursive_writer_on_deep_chain(indent):
    doc = deep_chain()
    sink = columnar_sink(doc, indent)
    assert sink.hexdigest() == reference_digest(doc, indent)
    assert max(sink.calls) < 64 * 1024 * 1024  # chunks stay bounded


@pytest.mark.parametrize("indent", [2, 3])
def test_lines_go_out_in_bounded_chunks(indent):
    doc = xmark.generate(scale=2, seed=7)
    sink = columnar_sink(doc, indent)
    total = lines_of(doc)
    assert total > 3 * CHUNK_LINES
    assert sum(sink.newlines) == total
    assert max(sink.newlines) <= CHUNK_LINES
    assert len(sink.calls) == -(-total // CHUNK_LINES)


def test_single_node_document():
    doc = document_from_tuples([("only", 0)])
    assert write_xml(doc) == "<only/>\n"
    assert write_xml(doc, indent=0) == "<only/>"


def test_deep_document_round_trips():
    doc = deep_chain()
    text = write_xml(doc, indent=0)
    again = parse_xml(text)
    labels = [(n.tag, n.start, n.end, n.level) for n in doc]
    assert [(n.tag, n.start, n.end, n.level) for n in again] == labels
    assert again.max_depth() == DEPTH - 1


def test_deep_document_store_saves_opens_and_commits(tmp_path):
    """At the default indent the store's ``document.xml`` is ~200 MB of
    padding; the directory is removed as soon as the check is done."""
    store = tmp_path / "store"
    doc = deep_chain()
    query = "//b/a"
    try:
        with ViewCatalog(doc) as catalog:
            catalog.add(parse_pattern(query), "LEp")
            save_catalog(catalog, store)
        with QueryService.open(store) as service:
            assert service.catalog.document.max_depth() == DEPTH - 1
            leaf = service.catalog.document.nodes[-1]
            report = service.apply_updates([
                InsertSubtree(parent_start=leaf.start, position=0,
                              rows=(("b", 0), ("a", 1))),
            ])
            assert report.deltas == 1
            committed = service.catalog.document
            assert committed.max_depth() == DEPTH + 1
            expected = sorted(
                tuple(node.start for node in match)
                for match in find_embeddings(committed, parse_pattern(query))
            )
            assert service.evaluate(query).match_keys == expected
        with QueryService.open(store) as service:
            assert len(service.catalog.document) == DEPTH + 2
    finally:
        shutil.rmtree(store, ignore_errors=True)


def test_write_xml_to_text_handle_matches_string(small_doc):
    out = io.StringIO()
    _write(small_doc, out, 2)
    assert out.getvalue() == write_xml(small_doc)


def many_tags(count: int = 600, seed: int = 3):
    """A random tree of ``count`` nodes, each with its own element type,
    up to 40 levels deep: more distinct (level, tag) lines than the
    writer's line tables keep."""
    rng = random.Random(seed)
    rows = [("t0", 0)]
    depth = 0
    for i in range(1, count):
        depth = rng.randint(1, min(depth + 1, 40))
        rows.append((f"t{i}", depth))
    return document_from_tuples(rows, name="many-tags")


def labels_of(document) -> list[tuple]:
    return [(n.tag, n.start, n.end, n.level, n.parent_index) for n in document]


def test_fifty_thousand_levels_match_reference_and_round_trip(tmp_path):
    doc = deep_chain(DEEPEST)
    assert columnar_sink(doc, 0).hexdigest() == reference_digest(doc, 0)
    path = tmp_path / "deepest.xml"
    write_xml_file(doc, path, indent=0)
    again = parse_xml_file(path)
    assert labels_of(again) == labels_of(doc)
    assert again.max_depth() == DEEPEST - 1


@pytest.mark.parametrize("indent", [0, 2, 3])
def test_hundreds_of_tags_match_reference_and_round_trip(tmp_path, indent):
    doc = many_tags()
    assert len(doc.tags()) > 500
    assert columnar_sink(doc, indent).hexdigest() == reference_digest(
        doc, indent
    )
    path = tmp_path / "tags.xml"
    write_xml_file(doc, path, indent=indent)
    assert labels_of(parse_xml_file(path)) == labels_of(doc)
