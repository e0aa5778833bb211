"""StoredList / ListCursor unit tests."""

from __future__ import annotations

import random
import struct
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import random_trees
from repro.errors import StorageError
from repro.storage.lists import SlottedList, StoredList
from repro.storage.pager import Pager
from repro.storage.records import (
    _ABSENT,
    NULL_POINTER,
    UNMATERIALIZED_POINTER,
    CompactLinkedCodec,
    ElementEntry,
    LinkedEntry,
    MatchKeyCodec,
    compact_linked_codec,
    element_codec,
    linked_codec,
    tuple_codec,
)
from tests.rowwise_reference import PoolServedList


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


# -- pages are the columns' serialization ---------------------------------------

def reference_pages(codec, records, page_size):
    """The pages the per-record writer laid out: each record ``encode``d,
    fixed slots filled ``page_size // width`` at a time, a slotted page
    closed when the next record would overflow it."""
    raws = [codec.encode(record) for record in records]
    pages = []
    if isinstance(codec, CompactLinkedCodec):
        pending, used = [], 2
        for raw in raws + [None]:
            if raw is None or (used + 2 + len(raw) > page_size and pending):
                if pending:
                    offsets = [2 + 2 * len(pending)]
                    for done in pending[:-1]:
                        offsets.append(offsets[-1] + len(done))
                    pages.append(struct.pack(
                        f"<{len(pending) + 1}H", len(pending), *offsets
                    ) + b"".join(pending))
                pending, used = [], 2
            if raw is not None:
                pending.append(raw)
                used += 2 + len(raw)
    else:
        per_page = page_size // codec.width
        pages = [b"".join(raws[low:low + per_page])
                 for low in range(0, len(raws), per_page)]
    return [page.ljust(page_size, b"\0") for page in pages]


def pages_of(stored):
    read_raw = stored.pager.page_file.read_page_raw
    return [read_raw(page_id) for page_id in stored.page_map()[0]]


def random_pointer(rng, child=False):
    """A pointer: null, unmaterialized (never for a compact child slot,
    which is always materialized) or a real entry index."""
    roll = rng.random()
    if roll < 0.3:
        return NULL_POINTER
    if roll < 0.5 and not child:
        return UNMATERIALIZED_POINTER
    return rng.randrange(1 << 20)


def random_entry(rng):
    return ElementEntry(rng.randrange(1 << 32), rng.randrange(1 << 32),
                        rng.randrange(256))


def random_linked(rng, compact, children=2):
    return LinkedEntry(
        *random_entry(rng), random_pointer(rng), random_pointer(rng),
        tuple(random_pointer(rng, compact) for _ in range(children)),
    )


#: codec, page layout and a record generator, per codec
CODECS = {
    "element": (element_codec(), StoredList, random_entry),
    "linked": (linked_codec(2), StoredList,
               lambda rng: random_linked(rng, compact=False)),
    "tuple": (tuple_codec(3), StoredList,
              lambda rng: tuple(random_entry(rng) for _ in range(3))),
    "match-key": (MatchKeyCodec(2), StoredList,
                  lambda rng: (rng.randrange(1 << 32), rng.randrange(1 << 32))),
    "compact": (compact_linked_codec(2), SlottedList,
                lambda rng: random_linked(rng, compact=True)),
    **{
        f"compact-{children}": (
            compact_linked_codec(children), SlottedList,
            lambda rng, k=children: random_linked(rng, True, k),
        )
        for children in (0, 1, CompactLinkedCodec.MAX_CHILDREN)
    },
}


@pytest.mark.parametrize("page_size", [64, 4096])
@pytest.mark.parametrize("kind", sorted(CODECS))
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 1 << 16), size=st.integers(0, 700))
@example(seed=0, size=0)
def test_pages_are_the_columns_serialization(kind, page_size, seed, size):
    """Pages written from the columns equal the concatenated per-record
    ``encode`` output — sentinel pointers, a partial last page, an empty
    list and slotted page breaks included — whether the records were
    appended or the columns handed over whole; and ``attach`` decodes
    those pages back into the same columns."""
    codec, layout, make = CODECS[kind]
    rng = random.Random(seed)
    records = [make(rng) for _ in range(size)]
    pager = Pager(page_size=page_size)
    if layout is SlottedList and codec.max_width + 4 > page_size:
        # a widest record (70 bytes at 12 children) must fit one page
        with pytest.raises(StorageError):
            layout(pager, codec)
        return
    stored = layout(pager, codec)
    stored.extend(records)
    stored.finalize()
    expected = reference_pages(codec, records, page_size)
    assert pages_of(stored) == expected
    handed = layout.from_columns(pager, codec, stored.columns)
    assert pages_of(handed) == expected
    attached = layout.attach(pager, codec, stored.manifest())
    assert attached.columns.fields == stored.columns.fields
    assert list(attached.scan()) == records


@pytest.mark.parametrize("children", [0, 3, CompactLinkedCodec.MAX_CHILDREN])
def test_every_flag_word_shape_reads_what_decode_reads(children):
    """For every 16-bit flag word — code ``0b11`` (a present pointer to
    ``decode``) and bits past the child pointers (ignored) included — the
    bulk decoder reads the record ``decode`` reads: its per-shape layout
    gives the same entry and width, and ``unpack_records`` over all 65 536
    records at once fills the same columns."""
    codec = compact_linked_codec(children)
    words = tuple(range(100, 100 + 2 + CompactLinkedCodec.MAX_CHILDREN))
    raws = [struct.pack("<H3I14I", flags, 7, 9, 2, *words)
            for flags in range(1 << 16)]
    expected = codec.make_columns()
    for flags, raw in enumerate(raws):
        entry, width = codec.decode(raw)
        unpack, row = codec.shape(flags)
        read = unpack(raw, 0)
        assert LinkedEntry(*(fields := row(read + _ABSENT))[:5],
                           fields[5:]) == entry
        assert 4 * len(read) - 2 == width
        expected.append(entry)
    bulk = codec.make_columns()
    stride = len(raws[0])
    codec.unpack_records(b"".join(raws), range(0, len(raws) * stride, stride),
                         bulk)
    assert bulk.fields == expected.fields


BAD_RECORDS = {
    "linked-child-count":
        (linked_codec(2), StoredList, LinkedEntry(1, 2, 0, -1, -1, (0,))),
    "linked-below-sentinels":
        (linked_codec(0), StoredList, LinkedEntry(1, 2, 0, -7, -1, ())),
    "linked-past-u32":
        (linked_codec(0), StoredList, LinkedEntry(1, 2, 0, -1, 1 << 32, ())),
    "tuple-arity": (tuple_codec(2), StoredList, (ElementEntry(1, 2, 0),)),
    "match-key-arity": (MatchKeyCodec(3), StoredList, (1, 2)),
    "compact-child-count": (compact_linked_codec(1), SlottedList,
                            LinkedEntry(1, 2, 0, -1, -1, ())),
    "compact-unmaterialized-child": (
        compact_linked_codec(1), SlottedList,
        LinkedEntry(1, 2, 0, -1, -1, (UNMATERIALIZED_POINTER,)),
    ),
}


@pytest.mark.parametrize("codec, layout, record",
                         list(BAD_RECORDS.values()), ids=list(BAD_RECORDS))
def test_bad_records_are_rejected(codec, layout, record):
    """What the per-record ``encode`` refuses, the list refuses too — in
    ``append``, or in ``finalize`` for the compact codec's always-
    materialized child pointers."""
    with pytest.raises(StorageError):
        codec.encode(record)
    stored = layout(Pager(page_size=4096), codec)
    with pytest.raises(StorageError):
        stored.append(record)
        stored.finalize()


# -- the list twins: packed columns vs the pool-served reference reader ----------

def element_twin(size):
    pager = Pager(page_size=64, pool_capacity=2)
    stored = StoredList(pager, element_codec())
    stored.extend(ElementEntry(3 * i, 3 * i + 1, i % 4) for i in range(size))
    return stored.finalize(), pager


def compact_linked_twin(size):
    # Variable-width records: a pointer's presence changes the width.
    pager = Pager(page_size=64, pool_capacity=2)
    stored = SlottedList(pager, compact_linked_codec(2))
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


def tuple_twin(size):
    pager = Pager(page_size=64, pool_capacity=2)
    stored = StoredList(pager, tuple_codec(2))
    stored.extend(
        (ElementEntry(3 * i, 3 * i + 1, 1), ElementEntry(size - i, i, 2))
        for i in range(size)
    )
    return stored.finalize(), pager


@pytest.mark.parametrize("twin", [element_twin, compact_linked_twin,
                                  tuple_twin])
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
    """One list built twice, one copy read through its packed columns and
    the other through the pool-served reference reader over its pages
    (``tests/rowwise_reference.py``): every read API returns the same
    records and leaves the same pool statistics (the ``touch`` mirror,
    one layer up from ``tests/test_pager.py``).  This is the substrate the
    engines' row-wise reference stands on."""
    sides = []
    for reference in (False, True):
        stored, pager = twin(size)
        if reference:
            stored = PoolServedList(stored)
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


# -- SHIFT: a clone's columns derived from its parent's, pages rewritten ----------

def shift_label(value, ops):
    """The SHIFT rule for one label: each op in the space the last one left."""
    for cut, amount in ops:
        if value >= cut:
            value += amount
    return value


def parts(record):
    """A record's labelled entries: its components for a tuple record."""
    return record if isinstance(record[0], ElementEntry) else (record,)


def shift_record(record, ops):
    shifted = [
        part._replace(start=shift_label(part.start, ops),
                      end=shift_label(part.end, ops))
        for part in parts(record)
    ]
    return tuple(shifted) if isinstance(record[0], ElementEntry) else shifted[0]


def tree_entries(seed, kind):
    """Records for the ``a`` nodes of a small random tree: real region
    labels, so ends nest, with gaps where the other nodes sit.  A tuple
    record's later components run out of order (the ``b`` nodes back to
    front, the ``a`` nodes rotated), so only component 0 is sorted."""
    document = random_trees.generate(
        size=40, tags=("a", "b"), max_depth=6, seed=seed
    )

    def labels(tag):
        return [ElementEntry(node.start, node.end, node.level)
                for node in document.tag_list(tag)]

    own = labels("a")
    if kind == "element":
        return own
    if kind == "tuple":
        others = labels("b") or own
        return [
            (entry, others[-1 - k % len(others)], own[(k + 1) % len(own)])
            for k, entry in enumerate(own)
        ]
    return [
        LinkedEntry(
            *entry,
            k + 1 if k % 2 else NULL_POINTER,
            UNMATERIALIZED_POINTER if k % 3 else k,
            (k if k % 4 else NULL_POINTER, NULL_POINTER),
        )
        for k, entry in enumerate(own)
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
    "tuple": lambda pager: StoredList(pager, tuple_codec(3)),
    "compact": lambda pager: SlottedList(pager, compact_linked_codec(2)),
}


def unshifted_fields(columns):
    """The columns a SHIFT leaves alone: all but the start/end labels."""
    labels = {
        id(column) for part in getattr(columns, "components", (columns,))
        for column in (part.starts, part.ends)
    }
    return [column for column in columns.fields if id(column) not in labels]


@pytest.mark.parametrize("kind", sorted(SHIFT_LISTS))
@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_shift_derives_columns_from_parent(kind, seed, data):
    """A SHIFT clone's derived columns equal a fresh decode of its pages
    and the per-label rule; its pages equal the per-record writer's over
    the shifted records; levels and pointers are shared, not copied; and
    the parent — which a pinned generation may still read — is unchanged."""
    pager = Pager(page_size=64)
    entries = tree_entries(seed, kind)
    parent = SHIFT_LISTS[kind](pager)
    parent.extend(entries)
    parent.finalize()
    columns_before = [array(c.typecode, c) for c in parent.columns.fields]
    pages_before = pages_of(parent)

    labels = sorted({
        value for entry in entries for part in parts(entry)
        for value in (part.start, part.end)
    })
    ops = []
    for __ in range(data.draw(st.integers(1, 4), label="ops")):
        op = draw_op(data, labels)
        ops.append(op)
        labels = [shift_label(value, [op]) for value in labels]
    clone = parent.shifted(ops)

    shifted = [shift_record(entry, ops) for entry in entries]
    fresh = type(parent).attach(pager, parent.codec, clone.manifest())
    assert clone.columns.fields == fresh.columns.fields
    assert list(fresh.scan()) == shifted
    assert pages_of(clone) == reference_pages(parent.codec, shifted, 64)
    assert all(shared is own for shared, own in zip(
        unshifted_fields(clone.columns), unshifted_fields(parent.columns)
    ))
    assert list(parent.columns.fields) == columns_before
    assert pages_of(parent) == pages_before
    assert list(parent.scan()) == entries
