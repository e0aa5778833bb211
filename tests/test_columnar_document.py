"""The columnar document against the object-model reference.

``repro.xmltree.document.Document`` keeps its nodes as parallel columns
and builds :class:`Node` flyweights on access; the object model it
replaced lives on in ``tests/object_document_reference.py``.  Everything
that reads a document must not be able to tell them apart:

* every accessor returns the same nodes (by label, tag, index, parent);
* the naive oracle (``tpq/naive.py``, unchanged) finds the same
  embeddings on both, and ``solution_nodes`` agrees with it;
* the DataGuide summarizes the same paths with the same counts;
* ``apply_delta`` yields the same document and the same
  ``AppliedDelta`` fields as the object ``apply_delta``;
* ``random_update_sequence`` — the benchmark's storm deltas and every
  ``maintenance.*`` exact count — draws exactly the deltas it always
  drew (pinned digests).

Plus the flyweight contract itself: a document holds no per-node Python
object, and nodes compare by label, not identity.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random

import pytest

from repro.datasets import random_trees, xmark
from repro.datasets.updates import random_update_sequence
from repro.errors import ReproError
from repro.maintenance.apply import apply_delta
from repro.maintenance.deltas import delta_to_dict
from repro.tpq.matching import solution_nodes
from repro.tpq.naive import find_embeddings, find_solution_nodes_naive
from repro.xmltree.dataguide import DataGuide
from repro.xmltree.document import Document, Node, document_from_tuples
from repro.xmltree.writer import write_xml
from tests.object_document_reference import (
    apply_delta_objects,
    object_document,
)
from tests.test_enumeration import SHAPES, TAGS, random_pattern


def row(node: Node | None):
    if node is None:
        return None
    return (
        node.tag, node.start, node.end, node.level, node.index,
        node.parent_index,
    )


def rows(nodes) -> list:
    return [row(node) for node in nodes]


def random_case(seed: int):
    rng = random.Random(seed)
    doc = random_trees.generate(
        size=60 + seed % 90, tags=list(TAGS), max_depth=3 + seed % 6,
        max_fanout=2 + seed % 4, seed=seed,
    )
    return doc, random_pattern(rng, SHAPES[seed % len(SHAPES)])


# -- accessors -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_accessors_match_object_reference(seed):
    doc, __ = random_case(seed)
    ref = object_document(doc)
    assert rows(doc.nodes) == rows(ref.nodes)
    assert rows(doc) == rows(ref)
    assert row(doc.root) == row(ref.root)
    assert len(doc) == len(ref)
    assert doc.tags() == ref.tags()
    assert doc.summary() == ref.summary()
    assert doc.max_depth() == ref.max_depth()
    for tag in sorted(doc.tags()) + ["absent"]:
        assert rows(doc.tag_list(tag)) == rows(ref.tag_list(tag))
        assert doc.tag_count(tag) == ref.tag_count(tag)
    for node, twin in zip(doc.nodes, ref.nodes):
        assert rows(doc.children(node)) == rows(ref.children(twin))
        assert row(doc.parent(node)) == row(ref.parent(twin))
        assert rows(doc.descendants(node)) == rows(ref.descendants(twin))
        assert rows(doc.ancestors(node)) == rows(ref.ancestors(twin))
        for tag in TAGS:
            assert rows(doc.descendants_by_tag(node, tag)) == rows(
                ref.descendants_by_tag(twin, tag)
            )
            assert row(doc.lowest_ancestor_by_tag(node, tag)) == row(
                ref.lowest_ancestor_by_tag(twin, tag)
            )


def test_node_sequence_view_slices_and_indexes(small_doc):
    nodes = small_doc.nodes
    everything = list(nodes)
    assert len(nodes) == len(everything) == len(small_doc)
    assert rows(nodes[1:]) == rows(everything[1:])
    assert rows(nodes[::2]) == rows(everything[::2])
    assert rows(nodes[2:5][1:]) == rows(everything[3:5])
    assert row(nodes[-1]) == row(everything[-1])
    with pytest.raises(IndexError):
        nodes[len(everything)]


# -- the oracle's substrate -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_naive_oracle_and_solution_nodes_agree_on_both_models(seed):
    doc, pattern = random_case(seed)
    ref = object_document(doc)
    columnar = find_embeddings(doc, pattern)
    assert [rows(match) for match in columnar] == [
        rows(match) for match in find_embeddings(ref, pattern)
    ]
    expected = find_solution_nodes_naive(ref, pattern)
    assert {
        tag: rows(nodes) for tag, nodes in solution_nodes(doc, pattern).items()
    } == {tag: rows(nodes) for tag, nodes in expected.items()}


def reference_guide(ref) -> dict[tuple[str, ...], int]:
    """Root path -> instance count, from the object model's navigation."""
    counts: dict[tuple[str, ...], int] = {}
    for node in ref.nodes:
        path = tuple(
            ancestor.tag for ancestor in reversed(ref.ancestors(node))
        ) + (node.tag,)
        counts[path] = counts.get(path, 0) + 1
    return counts


@pytest.mark.parametrize("seed", range(12))
def test_dataguide_paths_and_counts_match_reference(seed):
    doc, __ = random_case(seed)
    expected = reference_guide(object_document(doc))
    guide = DataGuide(doc)
    assert sorted(guide.paths()) == sorted(expected)
    assert len(guide) == len(expected)
    for path, count in expected.items():
        assert guide.count_of(path) == count


# -- apply_delta -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_apply_delta_matches_object_apply_delta(seed):
    doc = random_trees.generate(size=120, tags=list(TAGS), seed=seed)
    deltas, final = random_update_sequence(
        doc, count=25, seed=seed, max_subtree=6
    )
    ref = object_document(doc)
    for delta in deltas:
        applied = apply_delta(doc, delta)
        expected = apply_delta_objects(ref, delta)
        assert rows(applied.document) == rows(expected.document)
        assert applied.document.tags() == expected.document.tags()
        for field in (
            "kind", "touched_tags", "shift_start", "shift_amount",
            "inserted", "deleted_range", "renamed",
        ):
            assert getattr(applied, field) == getattr(expected, field), field
        doc, ref = applied.document, expected.document
    assert rows(doc) == rows(final)


#: sha256 of the JSON wire form of the first 50 deltas, and of the final
#: document's XML, of ``random_update_sequence`` over XMark scale 0.5
#: (recorded with the object-model document; the benchmark's storm
#: deltas are drawn the same way).
PINNED = {
    42: (
        "3e67b1a747291cf49daed79299e3626090a99254efb401de98b9c9dd6aa1b199",
        "3ba57b2b793f8c924f4b7e807bbc1a414d28bb1d48cb239b6a0184160b588e6f",
    ),
    7: (
        "a8d8aee2588fd84bf573311996fd9d8c77e80b5faaee226e340f154f866f6582",
        "60d8d0a56f2e4e74252ff0258599159c39838b4121ef869782a92046668d9435",
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_random_update_sequence_draws_are_pinned(seed):
    doc = xmark.generate(scale=0.5, seed=seed)
    deltas, final = random_update_sequence(doc, count=50, seed=seed)
    wire = json.dumps([delta_to_dict(delta) for delta in deltas], sort_keys=True)
    assert (
        hashlib.sha256(wire.encode()).hexdigest(),
        hashlib.sha256(write_xml(final).encode()).hexdigest(),
    ) == PINNED[seed]


# -- the flyweight contract -------------------------------------------------------------


def test_document_holds_no_per_node_objects():
    rows_ = [("root", 0)] + [
        (("a", "b", "c")[i % 3], 1 + i % 5) for i in range(35_000)
    ]
    gc.collect()
    before = len(gc.get_objects())
    doc = document_from_tuples(rows_)
    gc.collect()
    assert len(doc) == 35_001
    assert len(gc.get_objects()) - before < 1_000


def test_nodes_are_equal_by_label_not_identity(small_doc):
    for i in range(len(small_doc)):
        assert small_doc.nodes[i] == small_doc.nodes[i]
        assert hash(small_doc.nodes[i]) == hash(small_doc.nodes[i])
    a = small_doc.tag_list("a")[0]
    assert small_doc.parent(small_doc.children(a)[0]) == a
    assert {small_doc.nodes[1], small_doc.nodes[1]} == {a}


@pytest.mark.parametrize(
    "nodes",
    [
        # out of document order
        [Node(0, 5, 0, "r", 0, -1), Node(3, 4, 1, "a", 1, 0),
         Node(1, 2, 1, "b", 2, 0)],
        # parent index after the child
        [Node(0, 5, 0, "r", 0, -1), Node(1, 2, 2, "a", 1, 2),
         Node(3, 4, 1, "b", 2, 0)],
        # a second root
        [Node(0, 1, 0, "r", 0, -1), Node(2, 3, 0, "a", 1, -1)],
        # not inside the parent's region
        [Node(0, 3, 0, "r", 0, -1), Node(1, 4, 1, "a", 1, 0)],
        # level not one below the parent's
        [Node(0, 3, 0, "r", 0, -1), Node(1, 2, 2, "a", 1, 0)],
    ],
)
def test_validation_rejects_malformed_columns(nodes):
    with pytest.raises(ReproError):
        Document(nodes)
