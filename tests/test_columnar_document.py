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
  drew (pinned digests);
* a document ``apply_delta`` derives from its parent without validating
  it equals ``Document.from_columns`` of the same columns — columns, tag
  table, per-tag index and every accessor — passes an explicit
  validation, and lets its parent be collected; so does everything
  ``DocumentBuilder`` builds; bad deltas still fail typed.

Plus the flyweight contract itself: a document holds no per-node Python
object, and nodes compare by label, not identity.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import weakref

import pytest

from repro.datasets import random_trees, xmark
from repro.datasets.updates import random_update_sequence
from repro.errors import MaintenanceError, ReproError
from repro.maintenance import apply_updates
from repro.maintenance.apply import apply_delta
from repro.maintenance.deltas import (
    DeleteSubtree,
    InsertSubtree,
    RenameTag,
    delta_to_dict,
)
from repro.storage.catalog import ViewCatalog
from repro.tpq.parser import parse_pattern
from repro.tpq.matching import solution_nodes
from repro.tpq.naive import find_embeddings, find_solution_nodes_naive
from repro.xmltree.dataguide import DataGuide
from repro.xmltree.document import (
    Document,
    DocumentBuilder,
    Node,
    document_from_tuples,
)
from repro.xmltree.parser import parse_xml
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


# -- documents derived without validation ----------------------------------------


def assert_same_document(doc: Document, ref: Document, every: int = 1):
    """``doc`` and ``ref`` agree on their columns, per-tag index and every
    accessor (navigation checked at every ``every``-th node)."""
    assert doc.columns == ref.columns
    assert doc._by_tag == ref._by_tag
    assert rows(doc.nodes) == rows(ref.nodes)
    assert doc.tags() == ref.tags()
    assert doc.summary() == ref.summary()
    tags = sorted(ref.tags()) + ["absent"]
    for tag in tags:
        assert doc.tag_indexes(tag) == ref.tag_indexes(tag)
        assert rows(doc.tag_list(tag)) == rows(ref.tag_list(tag))
        assert doc.tag_count(tag) == ref.tag_count(tag)
    for i in range(0, len(ref), every):
        node, twin = doc.nodes[i], ref.nodes[i]
        assert doc.index_at(node.start) == i
        assert doc.subtree_end(i) == ref.subtree_end(i)
        assert doc.child_indexes(i) == ref.child_indexes(i)
        assert row(doc.parent(node)) == row(ref.parent(twin))
        assert rows(doc.ancestors(node)) == rows(ref.ancestors(twin))
        for tag in tags:
            assert rows(doc.descendants_by_tag(node, tag)) == rows(
                ref.descendants_by_tag(twin, tag)
            )
            assert row(doc.lowest_ancestor_by_tag(node, tag)) == row(
                ref.lowest_ancestor_by_tag(twin, tag)
            )


def check_derivations(doc: Document, deltas, every: int = 1) -> None:
    for delta in deltas:
        derived = apply_delta(doc, delta).document
        derived._validate()
        assert_same_document(
            derived, Document.from_columns(derived.columns, doc.name), every
        )
        doc = derived


@pytest.mark.parametrize("seed", range(10))
def test_derived_document_equals_validated_rebuild_on_random_trees(seed):
    doc = random_trees.generate(
        size=40 + 15 * seed, tags=list(TAGS), max_depth=3 + seed % 5,
        seed=seed,
    )
    # Alien tags make inserts and renames grow the tag table; small trees
    # make deletes empty a tag's index.
    deltas, __ = random_update_sequence(
        doc, count=40, seed=seed, tag_pool=list(TAGS) + ["x", "y"],
        max_subtree=5,
    )
    kinds = {delta.kind for delta in deltas}
    assert kinds == {"insert-subtree", "delete-subtree", "rename-tag"}
    check_derivations(doc, deltas)


@pytest.mark.parametrize("seed", [42, 7])
def test_derived_document_equals_validated_rebuild_on_xmark(seed):
    doc = xmark.generate(scale=0.5, seed=seed)
    deltas, __ = random_update_sequence(doc, count=20, seed=seed)
    check_derivations(doc, deltas, every=97)


def chain_document(depth: int = 200) -> Document:
    builder = DocumentBuilder("chain")
    for level in range(depth):
        builder.open("a" if level % 2 else "b")
    for __ in range(depth):
        builder.close()
    return builder.build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_trees.generate(size=500, max_depth=8, seed=11),
        lambda: xmark.generate(scale=0.5, seed=42),
        lambda: parse_xml(write_xml(random_trees.generate(size=300, seed=5))),
        lambda: document_from_tuples(
            [("r", 0), ("a", 1), ("b", 2), ("a", 1)]
        ),
        lambda: document_from_tuples([("only", 0)]),
        chain_document,
    ],
    ids=["random", "xmark", "parsed", "tuples", "single", "chain"],
)
def test_builder_documents_pass_explicit_validation(build):
    doc = build()
    doc._validate()
    assert_same_document(
        doc, Document.from_columns(doc.columns, doc.name),
        every=max(1, len(doc) // 200),
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda b: None,  # no node at all
        lambda b: (b.leaf("r"), b.leaf("s")),  # a second root
        lambda b: b.open("r"),  # still open
    ],
)
def test_builder_rejects_what_validation_would(build):
    builder = DocumentBuilder()
    build(builder)
    with pytest.raises(ReproError):
        builder.build()


def test_parent_document_is_collectable_after_a_commit():
    doc = random_trees.generate(size=200, tags=list(TAGS), seed=9)
    deltas, __ = random_update_sequence(doc, count=2, seed=9)
    parent = weakref.ref(doc)
    applied = apply_delta(doc, deltas[0])
    del doc
    gc.collect()
    assert parent() is None
    assert len(applied.document) > 0

    with ViewCatalog(applied.document) as catalog:
        catalog.add(parse_pattern("//a//b"), "LEp")
        previous = weakref.ref(catalog.document)
        del applied
        apply_updates(catalog, deltas[1:])
        gc.collect()
        assert previous() is None
        catalog.document._validate()


def _unchecked_insert(parent_start: int, rows) -> InsertSubtree:
    """An insert whose rows skipped the delta's own checks (as a delta
    object built field by field would)."""
    delta = object.__new__(InsertSubtree)
    object.__setattr__(delta, "parent_start", parent_start)
    object.__setattr__(delta, "position", 0)
    object.__setattr__(delta, "rows", tuple(rows))
    return delta


@pytest.mark.parametrize(
    "delta",
    [
        InsertSubtree(parent_start=10_000, position=0, rows=(("x", 0),)),
        InsertSubtree(parent_start=0, position=99, rows=(("x", 0),)),
        DeleteSubtree(root_start=0),
        DeleteSubtree(root_start=10_000),
        RenameTag(node_start=10_000, new_tag="x"),
        _unchecked_insert(0, []),
        _unchecked_insert(0, [("x", 0), ("y", 0)]),
        _unchecked_insert(0, [("x", 0), ("y", 2)]),
        "not a delta",
    ],
    ids=[
        "insert-missing-parent", "insert-position", "delete-root",
        "delete-missing", "rename-missing", "insert-no-rows",
        "insert-two-roots", "insert-skips-a-level", "unknown",
    ],
)
def test_bad_deltas_still_raise_maintenance_error(delta):
    doc = random_trees.generate(size=60, tags=list(TAGS), seed=4)
    with pytest.raises(MaintenanceError):
        apply_delta(doc, delta)
