"""Document model and builder unit tests."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.xmltree.document import (
    Document,
    DocumentBuilder,
    Node,
    document_from_tuples,
)
from tests.conftest import starts_of, tags_of


def test_builder_assigns_region_labels(small_doc):
    root = small_doc.root
    assert root.tag == "r"
    assert root.start == 0
    assert root.level == 0
    for node in small_doc:
        assert node.start < node.end
        if node.parent_index >= 0:
            parent = small_doc.nodes[node.parent_index]
            assert parent.start < node.start < node.end < parent.end


def test_nodes_in_document_order(small_doc):
    starts = starts_of(small_doc.nodes)
    assert starts == sorted(starts)
    for i, node in enumerate(small_doc):
        assert node.index == i


def test_tag_list_partition(small_doc):
    all_tags = tags_of(small_doc.nodes)
    assert small_doc.tag_count("c") == 1
    assert small_doc.tag_count("missing") == 0
    total = sum(small_doc.tag_count(tag) for tag in small_doc.tags())
    assert total == len(all_tags)


def test_children_and_parent(small_doc):
    a = next(n for n in small_doc if n.tag == "a")
    children = small_doc.children(a)
    assert tags_of(children) == ["b", "f"]
    for child in children:
        assert small_doc.parent(child) == a


def test_descendants(small_doc):
    b = next(n for n in small_doc if n.tag == "b")
    assert tags_of(small_doc.descendants(b)) == ["c", "d", "e", "c2"]


def test_descendants_by_tag(small_doc):
    a = next(n for n in small_doc if n.tag == "a")
    assert tags_of(small_doc.descendants_by_tag(a, "c")) == ["c"]
    assert small_doc.descendants_by_tag(a, "g") == []


def test_ancestors(small_doc):
    e = next(n for n in small_doc if n.tag == "e")
    assert tags_of(small_doc.ancestors(e)) == ["d", "b", "a", "r"]


def test_lowest_ancestor_by_tag(recursive_doc):
    e_nodes = recursive_doc.tag_list("e")
    a_nodes = recursive_doc.tag_list("a")
    # e5 is inside a3, which is inside a2.
    e5 = e_nodes[4]
    assert recursive_doc.lowest_ancestor_by_tag(e5, "a") == a_nodes[2]
    e4 = e_nodes[3]
    assert recursive_doc.lowest_ancestor_by_tag(e4, "a") == a_nodes[1]


def test_builder_rejects_unbalanced():
    builder = DocumentBuilder()
    builder.open("a")
    with pytest.raises(ReproError):
        builder.build()


def test_builder_close_without_open():
    builder = DocumentBuilder()
    with pytest.raises(ReproError):
        builder.close()


def test_empty_document_rejected():
    with pytest.raises(ReproError):
        Document([])


def test_document_validates_indexes():
    node = Node(start=0, end=1, level=0, tag="a", index=5, parent_index=-1)
    with pytest.raises(ReproError):
        Document([node])


def test_document_from_tuples():
    doc = document_from_tuples(
        [("r", 0), ("a", 1), ("b", 2), ("c", 1)], name="t"
    )
    assert tags_of(doc.nodes) == ["r", "a", "b", "c"]
    a = doc.nodes[1]
    assert tags_of(doc.children(a)) == ["b"]
    c = doc.nodes[3]
    assert doc.parent(c) == doc.root


def test_document_from_tuples_rejects_level_skips():
    with pytest.raises(ReproError):
        document_from_tuples([("r", 0), ("a", 2)])


def test_summary(small_doc):
    summary = small_doc.summary()
    assert summary["nodes"] == len(small_doc)
    assert summary["max_depth"] == small_doc.max_depth() == 4
