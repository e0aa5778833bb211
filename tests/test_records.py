"""Record codec unit tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.records import (
    NULL_POINTER,
    UNMATERIALIZED_POINTER,
    ElementEntry,
    LinkedEntry,
    element_codec,
    linked_codec,
    tuple_codec,
)

labels = st.tuples(
    st.integers(0, 2**31), st.integers(0, 2**31), st.integers(0, 255)
)


@given(labels)
def test_element_roundtrip(label):
    codec = element_codec()
    entry = ElementEntry(*label)
    assert codec.decode(codec.encode(entry)) == entry
    assert codec.width == 12


pointers = st.integers(-2, 2**20)


@given(labels, pointers, pointers, st.lists(pointers, max_size=4))
def test_linked_roundtrip(label, following, descendant, children):
    codec = linked_codec(len(children))
    entry = LinkedEntry(*label, following, descendant, tuple(children))
    decoded = codec.decode(codec.encode(entry))
    assert decoded == entry
    assert codec.width == 12 + 4 * (2 + len(children))


def test_linked_sentinels():
    codec = linked_codec(1)
    entry = LinkedEntry(1, 2, 3, NULL_POINTER, UNMATERIALIZED_POINTER,
                        (NULL_POINTER,))
    decoded = codec.decode(codec.encode(entry))
    assert decoded.following == NULL_POINTER
    assert decoded.descendant == UNMATERIALIZED_POINTER
    assert decoded.children == (NULL_POINTER,)


def test_linked_child_arity_checked():
    codec = linked_codec(2)
    entry = LinkedEntry(1, 2, 3, -1, -1, (0,))
    with pytest.raises(StorageError):
        codec.encode(entry)


def test_pointer_range_checked():
    codec = linked_codec(0)
    with pytest.raises(StorageError):
        codec.encode(LinkedEntry(1, 2, 3, -7, -1, ()))


@given(st.lists(labels, min_size=1, max_size=5))
def test_tuple_roundtrip(components):
    codec = tuple_codec(len(components))
    record = tuple(ElementEntry(*label) for label in components)
    assert codec.decode(codec.encode(record)) == record
    assert codec.width == 12 * len(components)


def test_tuple_arity_checked():
    codec = tuple_codec(2)
    with pytest.raises(StorageError):
        codec.encode((ElementEntry(1, 2, 3),))
    with pytest.raises(StorageError):
        tuple_codec(0)
