"""StoredList / ListCursor unit tests."""

from __future__ import annotations

import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import random_trees
from repro.errors import StorageError
from repro.storage.lists import SlottedList, StoredList
from repro.storage.pager import Pager
from repro.storage.records import (
    NULL_POINTER,
    UNMATERIALIZED_POINTER,
    ElementEntry,
    LinkedEntry,
    compact_linked_codec,
    element_codec,
    linked_codec,
)


def make_list(entries, page_size=64, pool=8):
    pager = Pager(page_size=page_size, pool_capacity=pool)
    stored = StoredList(pager, element_codec(), name="t")
    stored.extend(ElementEntry(*e) for e in entries)
    return stored.finalize(), pager


def test_append_read_roundtrip():
    entries = [(i, i + 100, 1) for i in range(20)]
    stored, __ = make_list(entries)
    assert len(stored) == 20
    assert [e.start for e in stored.scan()] == list(range(20))
    assert stored.read(7) == ElementEntry(7, 107, 1)


def test_spans_multiple_pages():
    # 64-byte pages, 12-byte records -> 5 records per page
    entries = [(i, i + 1, 0) for i in range(17)]
    stored, __ = make_list(entries)
    assert stored.records_per_page == 5
    assert stored.num_pages == 4
    assert stored.size_bytes == 17 * 12


def test_page_of_addressing():
    entries = [(i, i + 1, 0) for i in range(12)]
    stored, __ = make_list(entries)
    page_id, slot = stored.page_of(7)
    assert slot == 7 % 5
    with pytest.raises(StorageError):
        stored.page_of(100)


def test_read_requires_finalize():
    pager = Pager(page_size=64)
    stored = StoredList(pager, element_codec())
    stored.append(ElementEntry(1, 2, 0))
    with pytest.raises(StorageError):
        stored.read(0)
    stored.finalize()
    assert stored.read(0).start == 1


def test_append_after_finalize_rejected():
    stored, __ = make_list([(1, 2, 0)])
    with pytest.raises(StorageError):
        stored.append(ElementEntry(3, 4, 0))


def test_out_of_range_read():
    stored, __ = make_list([(1, 2, 0)])
    with pytest.raises(StorageError):
        stored.read(5)


def test_oversized_record_rejected():
    pager = Pager(page_size=8)  # smaller than one 12-byte record
    with pytest.raises(StorageError):
        StoredList(pager, element_codec())


def test_cursor_sequential():
    entries = [(i, i + 1, 0) for i in range(7)]
    stored, __ = make_list(entries)
    cursor = stored.cursor()
    seen = []
    while cursor.current is not None:
        seen.append(cursor.current.start)
        cursor.advance()
    assert seen == list(range(7))
    assert cursor.exhausted
    cursor.advance()  # no-op past the end
    assert cursor.exhausted


def test_cursor_seek():
    entries = [(i, i + 1, 0) for i in range(10)]
    stored, __ = make_list(entries)
    cursor = stored.cursor()
    cursor.seek(6)
    assert cursor.current.start == 6
    cursor.seek(10)  # one past the end
    assert cursor.exhausted
    with pytest.raises(StorageError):
        cursor.seek(-1)


def test_empty_list_cursor():
    stored, __ = make_list([])
    cursor = stored.cursor()
    assert cursor.exhausted


def test_reads_counted_through_pool():
    entries = [(i, i + 1, 0) for i in range(10)]
    stored, pager = make_list(entries)
    pager.reset_stats()
    list(stored.scan())
    assert pager.stats.logical_reads == 10
    # 2 pages resident: only 2 physical reads
    assert pager.stats.physical_reads == 2


# -- the list twins: packed columns vs pool-served decode ------------------------

def element_twin(size, columnar):
    pager = Pager(page_size=64, pool_capacity=2)
    stored = StoredList(pager, element_codec(), columnar=columnar)
    stored.extend(ElementEntry(3 * i, 3 * i + 1, i % 4) for i in range(size))
    return stored.finalize(), pager


def compact_linked_twin(size, columnar):
    # Variable-width records: a pointer's presence changes the width.
    pager = Pager(page_size=64, pool_capacity=2)
    stored = SlottedList(pager, compact_linked_codec(2), columnar=columnar)
    stored.extend(
        LinkedEntry(
            3 * i, 3 * i + 1, i % 4,
            i + 1 if i % 2 else NULL_POINTER,
            UNMATERIALIZED_POINTER if i % 3 else NULL_POINTER,
            (i if i % 5 else NULL_POINTER, NULL_POINTER),
        )
        for i in range(size)
    )
    return stored.finalize(), pager


@pytest.mark.parametrize("twin", [element_twin, compact_linked_twin])
@settings(deadline=None, max_examples=60)
@given(
    size=st.integers(0, 40),
    script=st.lists(
        st.tuples(
            st.sampled_from(["read", "scan", "advance", "seek", "peek"]),
            st.integers(0, 44),
        ),
        max_size=30,
    ),
)
def test_columnar_and_pool_served_lists_agree(twin, size, script):
    """One list built twice, with packed columns and with
    ``columnar=False``: every read API returns the same records and
    leaves the same pool statistics (the ``touch`` mirror, one layer up
    from ``tests/test_pager.py``).  This is the substrate the engines'
    row-wise reference (``tests/rowwise_reference.py``) stands on."""
    sides = []
    for columnar in (True, False):
        stored, pager = twin(size, columnar)
        assert (stored.columns is not None) is columnar
        sides.append((stored, stored.cursor(), pager))

    def outcome(stored, cursor, pager, op, index):
        try:
            if op == "read":
                value = stored.read(index)
            elif op == "scan":
                value = list(stored.scan())
            elif op == "peek":
                value = cursor.peek(index)
            elif op == "seek":
                value = cursor.seek(index)
            else:
                value = cursor.advance()
        except StorageError:
            value = StorageError
        return (
            value, cursor.position, cursor.current, cursor.exhausted,
            pager.stats.logical_reads, pager.stats.physical_reads,
        )

    for op, index in script:
        columnar, served = (outcome(*side, op, index) for side in sides)
        assert columnar == served, (op, index)


# -- SHIFT: a clone's columns derived from its parent's, pages relabelled ---------

def shift_label(value, ops):
    """The SHIFT rule for one label: each op in the space the last one left."""
    for cut, amount in ops:
        if value >= cut:
            value += amount
    return value


def relabel_slotted_page(raw, ops):
    """Per-record reference relabel of one compact slotted page."""
    page = bytearray(raw)
    (count,) = struct.unpack_from("<H", page, 0)
    for slot in range(count):
        (offset,) = struct.unpack_from("<H", page, 2 + 2 * slot)
        labels = struct.unpack_from("<II", page, offset + 2)
        struct.pack_into("<II", page, offset + 2,
                         *(shift_label(value, ops) for value in labels))
    return bytes(page)


def tree_entries(seed):
    """Linked records for the ``a`` nodes of a small random tree: real
    region labels, so ends nest, with gaps where the other nodes sit."""
    document = random_trees.generate(
        size=40, tags=("a", "b"), max_depth=6, seed=seed
    )
    return [
        LinkedEntry(
            node.start, node.end, node.level,
            k + 1 if k % 2 else NULL_POINTER,
            UNMATERIALIZED_POINTER if k % 3 else k,
            (k if k % 4 else NULL_POINTER, NULL_POINTER),
        )
        for k, node in enumerate(document.tag_list("a"))
    ]


def draw_op(data, labels):
    """One ``(cut, amount)`` op in the space of the sorted ``labels``: an
    insert anywhere (below the first label, above the last, on a label),
    or a delete of a label run no record uses, as a real delete is."""
    top = labels[-1] + 1 if labels else 0
    if data.draw(st.booleans(), label="insert"):
        cut = data.draw(st.one_of(
            st.just(0), st.just(top), st.integers(0, top),
            *([st.sampled_from(labels)] if labels else []),
        ), label="cut")
        return cut, 2 * data.draw(st.integers(1, 8), label="width")
    bounds = [-1, *labels, top + 3]
    free = [(lo + 1, hi - 1) for lo, hi in zip(bounds, bounds[1:])
            if hi - lo > 1]
    low, high = data.draw(st.sampled_from(free), label="free run")
    first = data.draw(st.integers(low, high), label="first")
    last = data.draw(st.integers(first, high), label="last")
    return last + 1, first - last - 1


SHIFT_LISTS = {
    "element": lambda pager: StoredList(pager, element_codec()),
    "linked": lambda pager: StoredList(pager, linked_codec(2)),
    "compact": lambda pager: SlottedList(pager, compact_linked_codec(2)),
}


def column_fields(columns):
    pointers = (
        (columns.following, columns.descendant, *columns.children)
        if columns.kind == "linked" else ()
    )
    return [columns.starts, columns.ends, columns.levels, *pointers]


@pytest.mark.parametrize("kind", sorted(SHIFT_LISTS))
@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_shift_derives_columns_from_parent(kind, seed, data):
    """A SHIFT clone's derived columns equal a fresh decode of its pages
    and the per-label rule; a slotted clone's pages equal the per-record
    reference relabel; levels and pointers are shared, not copied; and
    the parent — which a pinned generation may still read — is unchanged."""
    pager = Pager(page_size=64)
    read_raw = pager.page_file.read_page_raw
    entries = tree_entries(seed)
    if kind == "element":
        entries = [ElementEntry(*entry[:3]) for entry in entries]
    parent = SHIFT_LISTS[kind](pager)
    parent.extend(entries)
    parent.finalize()
    columns_before = [array(c.typecode, c)
                      for c in column_fields(parent.columns)]
    pages_before = [read_raw(i) for i in parent.page_map()[0]]

    labels = sorted(v for entry in entries for v in entry[:2])
    ops = []
    for __ in range(data.draw(st.integers(1, 4), label="ops")):
        op = draw_op(data, labels)
        ops.append(op)
        labels = [shift_label(value, [op]) for value in labels]
    clone = parent.shifted(ops)

    derived = column_fields(clone.columns)
    fresh = type(parent).attach(pager, parent.codec, clone.manifest())
    assert derived == column_fields(fresh.columns)
    assert list(derived[0]) == [shift_label(e.start, ops) for e in entries]
    assert list(derived[1]) == [shift_label(e.end, ops) for e in entries]
    assert all(shared is own for shared, own
               in zip(derived[2:], column_fields(parent.columns)[2:]))
    if kind == "compact":
        assert [read_raw(i) for i in clone.page_map()[0]] == [
            relabel_slotted_page(raw, ops) for raw in pages_before
        ]
    assert column_fields(parent.columns) == columns_before
    assert [read_raw(i) for i in parent.page_map()[0]] == pages_before
    assert list(parent.scan()) == entries


def test_shift_refuses_a_slotted_list_without_columns():
    """The relabel is written from the columns; there is no second path."""
    stored, __ = compact_linked_twin(4, columnar=False)
    with pytest.raises(StorageError):
        stored.shifted([(0, 2)])
