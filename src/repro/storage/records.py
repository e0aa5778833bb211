"""Record codecs and packed columns for the storage schemes.

All schemes pack region labels as little-endian unsigned 32-bit integers.
Pointers are list-local entry indexes (equivalent to the paper's
page-number/byte-offset pairs under fixed-width records) with two reserved
sentinels:

* ``NULL_POINTER`` — the pointed node does not exist (paper Section III-A);
* ``UNMATERIALIZED_POINTER`` — the pointer exists conceptually but was not
  materialized under the LE\\_p heuristic (Section III-C); readers must fall
  back to sequential advancement.

A list's in-memory form is its packed columns, one flat array per record
field; pages are their serialization.  A fixed-width page is every
column's words interleaved in field order (:func:`pack_pages` writes it,
:func:`extend_columns` reads it back when a list is attached).  Each
codec's per-record ``encode`` / ``decode`` is the format reference the
bulk writers are tested against.
"""

from __future__ import annotations

import copy
import struct
import sys
from array import array
from bisect import bisect_left
from typing import Iterator, NamedTuple

from repro.errors import StorageError

#: Page words are little-endian u32 (``array("I")``); a big-endian host
#: byte-swaps each bulk array once, on the way in and on the way out.
_SWAP = sys.byteorder == "big"

NULL_POINTER = -1
UNMATERIALIZED_POINTER = -2
#: The largest entry index a signed 32-bit pointer column holds.
_MAX_POINTER = (1 << 31) - 1

_NULL_RAW = 0xFFFFFFFF
_UNMATERIALIZED_RAW = 0xFFFFFFFE

_LABEL = struct.Struct("<III")


class ElementEntry(NamedTuple):
    """One record of an element-scheme list (and the node part of others)."""

    start: int
    end: int
    level: int


class LinkedEntry(NamedTuple):
    """One record of a linked-element list.

    ``following`` / ``descendant`` / ``children[i]`` are entry indexes into
    the respective lists, or a pointer sentinel.  ``children`` is aligned
    with the view node's child query nodes in pattern order.
    """

    start: int
    end: int
    level: int
    following: int
    descendant: int
    children: tuple[int, ...]


class _Columns:
    """What every column set shares: ``fields``, each column in the
    record's on-page field order."""

    __slots__ = ()

    def extend_fields(self, *fields):
        """Extend each column by the matching sequence of ``fields`` (in
        ``fields`` order): a view hands over whole columns this way.
        Returns ``self``."""
        for column, values in zip(self.fields, fields, strict=True):
            column.extend(values)
        return self


class ElementColumns(_Columns):
    """Packed per-field columns of an element-record list.

    The one in-memory form of a list: ``starts``, ``ends`` and ``levels``
    are flat :class:`array.array` columns aligned by entry index, so binary
    searches and cursor advancement compare raw ints without NamedTuple
    allocation.  :meth:`entry` rebuilds the record object for the list's
    own readers (``read`` / ``scan`` / ``ListCursor``); the engines never
    call it — they carry an entry as its index into these columns.

    Columns are never mutated once their list is finalized or attached:
    only :meth:`append`, :meth:`extend_fields` and :func:`extend_columns`
    write them, and only while the list is being built.  A SHIFT clone
    (:meth:`shifted`) relies on it and shares every column the shift
    leaves alone with its parent.
    """

    __slots__ = ("starts", "ends", "levels")

    def __init__(self):
        self.starts = array("I")
        self.ends = array("I")
        self.levels = array("I")

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def fields(self) -> tuple[array, ...]:
        return (self.starts, self.ends, self.levels)

    def append(self, entry) -> None:
        """Append one record (anything with ``start``/``end``/``level``)."""
        self.starts.append(entry.start)
        self.ends.append(entry.end)
        self.levels.append(entry.level)

    def entry(self, index: int) -> "ElementEntry":
        return ElementEntry(
            self.starts[index], self.ends[index], self.levels[index]
        )

    def shifted(self, ops) -> "ElementColumns":
        """The same records with region labels run through the piecewise
        shifts ``ops``: new ``starts`` / ``ends``, every other column
        shared with ``self``."""
        clone = copy.copy(self)
        clone.starts, clone.ends = _shift_labels(self.starts, self.ends, ops)
        return clone


class LinkedColumns(ElementColumns):
    """Packed columns of a linked-record list (LE and LE_p).

    Besides the region-label columns this carries one signed pointer-slot
    column per pointer kind; pointer sentinels keep their decoded values
    (``NULL_POINTER`` / ``UNMATERIALIZED_POINTER``) so fast-path consumers
    branch on the same ints the record objects would expose.  The
    immutability contract and :meth:`shifted` are
    :class:`ElementColumns`'; a shift shares the pointer columns too.
    """

    __slots__ = ("following", "descendant", "children")

    def __init__(self, num_children: int):
        super().__init__()
        self.following = array("i")
        self.descendant = array("i")
        self.children = tuple(array("i") for _ in range(num_children))

    @property
    def fields(self) -> tuple[array, ...]:
        return (self.starts, self.ends, self.levels,
                self.following, self.descendant, *self.children)

    def append(self, entry: "LinkedEntry") -> None:
        """Append one record, rejecting a wrong child-pointer count or a
        pointer outside the signed 32-bit columns."""
        if len(entry.children) != len(self.children):
            raise StorageError(
                f"expected {len(self.children)} child pointers,"
                f" got {len(entry.children)}"
            )
        pointers = (entry.following, entry.descendant, *entry.children)
        if (min(pointers) < UNMATERIALIZED_POINTER
                or max(pointers) > _MAX_POINTER):
            raise StorageError(f"pointer in {pointers} out of encodable range")
        super().append(entry)
        self.following.append(entry.following)
        self.descendant.append(entry.descendant)
        for column, child in zip(self.children, entry.children):
            column.append(child)

    def entry(self, index: int) -> "LinkedEntry":
        return LinkedEntry(
            self.starts[index],
            self.ends[index],
            self.levels[index],
            self.following[index],
            self.descendant[index],
            tuple(column[index] for column in self.children),
        )


class TupleColumns(_Columns):
    """Packed columns of a tuple-scheme list: one :class:`ElementColumns`
    per component, in the view's preorder.

    The list is sorted by the composite key of component starts, so only
    component 0's ``starts`` are sorted — which is why :meth:`shifted`
    bisects that component alone.
    """

    __slots__ = ("components",)

    def __init__(self, arity: int):
        self.components = tuple(ElementColumns() for _ in range(arity))

    def __len__(self) -> int:
        return len(self.components[0])

    @property
    def fields(self) -> tuple[array, ...]:
        return tuple(
            column for component in self.components
            for column in component.fields
        )

    def append(self, entries) -> None:
        """Append one tuple record (one labelled entry per component)."""
        if len(entries) != len(self.components):
            raise StorageError(
                f"expected {len(self.components)} components,"
                f" got {len(entries)}"
            )
        for component, entry in zip(self.components, entries):
            component.append(entry)

    def entry(self, index: int) -> tuple[ElementEntry, ...]:
        return tuple(component.entry(index) for component in self.components)

    def shifted(self, ops) -> "TupleColumns":
        """The same tuples with every component's labels shifted: component
        0 by :meth:`ElementColumns.shifted`'s bisect, the unsorted others
        by the per-value rule; every ``levels`` column is shared."""
        first, *rest = self.components
        clone = copy.copy(self)
        clone.components = (first.shifted(ops), *(
            _shift_unsorted(component, ops) for component in rest
        ))
        return clone


class MatchKeyColumns(_Columns):
    """Packed columns of a match-key list: one u32 column per key slot."""

    __slots__ = ("keys",)

    def __init__(self, arity: int):
        self.keys = tuple(array("I") for _ in range(arity))

    def __len__(self) -> int:
        return len(self.keys[0])

    @property
    def fields(self) -> tuple[array, ...]:
        return self.keys

    def append(self, key: tuple[int, ...]) -> None:
        if len(key) != len(self.keys):
            raise StorageError(
                f"expected {len(self.keys)} components, got {len(key)}"
            )
        for column, value in zip(self.keys, key):
            column.append(value)

    def entry(self, index: int) -> tuple[int, ...]:
        return tuple(column[index] for column in self.keys)


def _encode_pointer(value: int) -> int:
    if value == NULL_POINTER:
        return _NULL_RAW
    if value == UNMATERIALIZED_POINTER:
        return _UNMATERIALIZED_RAW
    if not 0 <= value < _UNMATERIALIZED_RAW:
        raise StorageError(f"pointer {value} out of encodable range")
    return value


def _decode_pointer(raw: int) -> int:
    if raw == _NULL_RAW:
        return NULL_POINTER
    if raw == _UNMATERIALIZED_RAW:
        return UNMATERIALIZED_POINTER
    return raw


def _retyped(column: array, typecode: str) -> array:
    """``column``'s 32-bit words reinterpreted as ``typecode``.

    Pointer columns are signed and their page words unsigned.  The on-page
    sentinel encodings are exactly the two's-complement images of the
    decoded values (``0xFFFFFFFF`` -> ``NULL_POINTER`` = -1,
    ``0xFFFFFFFE`` -> ``UNMATERIALIZED_POINTER`` = -2), so one bulk
    reinterpretation converts a whole pointer column either way.
    """
    if column.typecode == typecode:
        return column
    return array(typecode, column.tobytes())


def pack_pages(columns, per_page: int) -> Iterator[bytes]:
    """The fixed-width pages of ``columns``, ``per_page`` records each.

    Each page is a zeroed ``u32`` array with every field's column slice
    assigned at its stride (``flat[field::stride]``); the bytes equal the
    concatenated per-record ``encode`` output of the page's records.
    """
    words = [_retyped(column, "I") for column in columns.fields]
    stride = len(words)
    total = len(columns)
    for low in range(0, total, per_page):
        high = min(low + per_page, total)
        flat = array("I", bytes(4 * stride * (high - low)))
        for field, column in enumerate(words):
            flat[field::stride] = column[low:high]
        if _SWAP:
            flat.byteswap()
        yield flat.tobytes()


def extend_columns(columns, raw: bytes, count: int) -> None:
    """Append the ``count`` fixed-width records at the head of page bytes
    ``raw`` to ``columns``: one bulk reinterpretation of the page and a
    strided slice per field (the inverse of :func:`pack_pages`)."""
    fields = columns.fields
    stride = len(fields)
    flat = array("I", raw[: 4 * stride * count])
    if _SWAP:
        flat.byteswap()
    for field, column in enumerate(fields):
        column.extend(_retyped(flat[field::stride], column.typecode))


def _shift_column(column: array, ops) -> array:
    """Run one u32 label column through piecewise shifts, in op order."""
    for cut, amount in ops:
        column = array("I", (
            value + amount if value >= cut else value for value in column
        ))
    return column


def _shift_labels(starts: array, ends: array, ops) -> tuple[array, array]:
    """Run a list's start and end columns through ``ops``.

    The rule is :func:`_shift_column`'s, each op in the label space the
    previous one left, but the work is per op rather than per value:
    ``starts`` is sorted, so one bisect splits the list into a head that
    stays and a tail that moves whole.  A tail entry's end is at least its
    start, hence past the cut, so only the head's ends (the entries that
    may contain the cut) take the per-value test.
    """
    for cut, amount in ops:
        split = bisect_left(starts, cut)
        add = amount.__add__
        head = _shift_column(ends[:split], ((cut, amount),))
        starts = starts[:split] + array("I", map(add, starts[split:]))
        ends = head + array("I", map(add, ends[split:]))
    return starts, ends


def _shift_unsorted(columns: ElementColumns, ops) -> ElementColumns:
    """:meth:`ElementColumns.shifted` for columns whose starts are not
    sorted: every label takes the per-value rule."""
    clone = copy.copy(columns)
    clone.starts = _shift_column(columns.starts, ops)
    clone.ends = _shift_column(columns.ends, ops)
    return clone


class ElementCodec:
    """Codec for element records: ``<start, end, level>``."""

    width = _LABEL.size

    def encode(self, entry: ElementEntry) -> bytes:
        return _LABEL.pack(entry.start, entry.end, entry.level)

    def decode(self, raw: bytes, offset: int = 0) -> ElementEntry:
        return ElementEntry(*_LABEL.unpack_from(raw, offset))

    def make_columns(self) -> ElementColumns:
        return ElementColumns()


class LinkedCodec:
    """Codec for linked-element records.

    Layout: label (12 bytes) + following + descendant + one pointer per
    child query node, each 4 bytes.
    """

    def __init__(self, num_children: int):
        if num_children < 0:
            raise StorageError("num_children must be >= 0")
        self.num_children = num_children
        self._struct = struct.Struct(f"<III{2 + num_children}I")
        self.width = self._struct.size

    def encode(self, entry: LinkedEntry) -> bytes:
        if len(entry.children) != self.num_children:
            raise StorageError(
                f"expected {self.num_children} child pointers,"
                f" got {len(entry.children)}"
            )
        pointers = [_encode_pointer(entry.following),
                    _encode_pointer(entry.descendant)]
        pointers.extend(_encode_pointer(child) for child in entry.children)
        return self._struct.pack(entry.start, entry.end, entry.level, *pointers)

    def decode(self, raw: bytes, offset: int = 0) -> LinkedEntry:
        values = self._struct.unpack_from(raw, offset)
        start, end, level = values[:3]
        following = _decode_pointer(values[3])
        descendant = _decode_pointer(values[4])
        children = tuple(_decode_pointer(v) for v in values[5:])
        return LinkedEntry(start, end, level, following, descendant, children)

    def make_columns(self) -> LinkedColumns:
        return LinkedColumns(self.num_children)


class TupleCodec:
    """Codec for tuple-scheme records: ``arity`` concatenated labels.

    A decoded tuple record is a flat tuple of :class:`ElementEntry`, one per
    view node in the view's preorder.
    """

    def __init__(self, arity: int):
        if arity <= 0:
            raise StorageError("tuple arity must be positive")
        self.arity = arity
        self._struct = struct.Struct(f"<{3 * arity}I")
        self.width = self._struct.size

    def encode(self, entries: tuple[ElementEntry, ...]) -> bytes:
        if len(entries) != self.arity:
            raise StorageError(
                f"expected {self.arity} components, got {len(entries)}"
            )
        flat: list[int] = []
        for entry in entries:
            flat.extend((entry.start, entry.end, entry.level))
        return self._struct.pack(*flat)

    def decode(self, raw: bytes, offset: int = 0) -> tuple[ElementEntry, ...]:
        values = self._struct.unpack_from(raw, offset)
        return tuple(
            ElementEntry(values[i], values[i + 1], values[i + 2])
            for i in range(0, len(values), 3)
        )

    def make_columns(self) -> TupleColumns:
        return TupleColumns(self.arity)


class MatchKeyCodec:
    """Codec for match-key rows: ``arity`` start labels, one per query node.

    Used by the sub-plan stream cache to spill a node's match stream into
    pager pages — the rows are plain int tuples (no element records), so a
    packed ``u32`` row per key is the whole story.
    """

    def __init__(self, arity: int):
        if arity <= 0:
            raise StorageError("match-key arity must be positive")
        self.arity = arity
        self._struct = struct.Struct(f"<{arity}I")
        self.width = self._struct.size

    def encode(self, key: tuple[int, ...]) -> bytes:
        if len(key) != self.arity:
            raise StorageError(
                f"expected {self.arity} components, got {len(key)}"
            )
        return self._struct.pack(*key)

    def decode(self, raw: bytes, offset: int = 0) -> tuple[int, ...]:
        return self._struct.unpack_from(raw, offset)

    def make_columns(self) -> MatchKeyColumns:
        return MatchKeyColumns(self.arity)


#: A following/descendant pointer's 2-bit compact flag; anything else is a
#: present pointer (``0b10``).
_TWO_BIT = {NULL_POINTER: 0, UNMATERIALIZED_POINTER: 1}


class CompactLinkedCodec:
    """Variable-width codec for LE_p records.

    The LE_p heuristic leaves many following/descendant pointer slots
    unmaterialized; paying 4 bytes for each anyway would make LE_p as large
    as LE on disk, whereas the paper's Table IV shows LE_p strictly smaller.
    This codec stores a 2-byte flag word plus only the pointers that carry
    a real target:

    * 2 bits each for the following and descendant pointers
      (00 null, 01 unmaterialized, 10 present);
    * 1 bit per child pointer (0 null, 1 present) — child pointers are
      always *materialized* under LE_p, but a null target needs no bytes.

    Records are variable width, so they live in slotted pages
    (:class:`repro.storage.lists.SlottedList`) instead of fixed-slot ones.
    """

    _FLAGS = struct.Struct("<H")
    _LABEL = _LABEL
    _POINTER = struct.Struct("<I")
    MAX_CHILDREN = 12
    #: Byte offset of a record's start/end pair, right after the flag word.
    #: Labels are full-width u32 whichever pointers follow, so relabelling
    #: a record never changes its width or the slotted page around it.
    LABELS_AT = _FLAGS.size

    def __init__(self, num_children: int):
        if not 0 <= num_children <= self.MAX_CHILDREN:
            raise StorageError(
                f"compact codec supports up to {self.MAX_CHILDREN} child"
                f" pointers, got {num_children}"
            )
        self.num_children = num_children
        # Upper bound on one record's width (used for page-fit checks).
        self.max_width = 2 + 12 + 4 * (2 + num_children)

    def make_columns(self) -> LinkedColumns:
        return LinkedColumns(self.num_children)

    def encode(self, entry: LinkedEntry) -> bytes:
        if len(entry.children) != self.num_children:
            raise StorageError(
                f"expected {self.num_children} child pointers,"
                f" got {len(entry.children)}"
            )
        flags = _TWO_BIT.get(entry.following, 2)
        flags |= _TWO_BIT.get(entry.descendant, 2) << 2
        present: list[int] = []
        if entry.following >= 0:
            present.append(entry.following)
        if entry.descendant >= 0:
            present.append(entry.descendant)
        for i, child in enumerate(entry.children):
            if child == UNMATERIALIZED_POINTER:
                raise StorageError("child pointers are always materialized")
            if child >= 0:
                flags |= 1 << (4 + i)
                present.append(child)
        parts = [self._FLAGS.pack(flags),
                 self._LABEL.pack(entry.start, entry.end, entry.level)]
        parts.extend(self._POINTER.pack(p) for p in present)
        return b"".join(parts)

    def pack_records(self, columns: LinkedColumns) -> Iterator[bytes]:
        """Every record of ``columns`` in :meth:`encode`'s layout, packed
        straight from the column ints (no record object): one struct per
        count of present pointers."""
        if any(UNMATERIALIZED_POINTER in column for column in columns.children):
            raise StorageError("child pointers are always materialized")
        packs = [struct.Struct(f"<HIII{present}I").pack
                 for present in range(3 + self.num_children)]
        bits = [1 << (4 + i) for i in range(self.num_children)]
        for start, end, level, following, descendant, *children in zip(
            *columns.fields
        ):
            flags = _TWO_BIT.get(following, 2)
            flags |= _TWO_BIT.get(descendant, 2) << 2
            present = [p for p in (following, descendant) if p >= 0]
            for bit, child in zip(bits, children):
                if child >= 0:
                    flags |= bit
                    present.append(child)
            yield packs[len(present)](flags, start, end, level, *present)

    def decode(self, raw: bytes, offset: int = 0) -> tuple[LinkedEntry, int]:
        """Decode one record; returns ``(entry, width)``."""
        (flags,) = self._FLAGS.unpack_from(raw, offset)
        start, end, level = self._LABEL.unpack_from(raw, offset + 2)
        cursor = offset + 14
        decoded: list[int] = []
        for shift in (0, 2):
            kind = (flags >> shift) & 0b11
            if kind == 0:
                decoded.append(NULL_POINTER)
            elif kind == 1:
                decoded.append(UNMATERIALIZED_POINTER)
            else:
                (value,) = self._POINTER.unpack_from(raw, cursor)
                cursor += 4
                decoded.append(value)
        children: list[int] = []
        for i in range(self.num_children):
            if flags & (1 << (4 + i)):
                (value,) = self._POINTER.unpack_from(raw, cursor)
                cursor += 4
                children.append(value)
            else:
                children.append(NULL_POINTER)
        entry = LinkedEntry(
            start, end, level, decoded[0], decoded[1], tuple(children)
        )
        return entry, cursor - offset


def element_codec() -> ElementCodec:
    """Shared element codec instance factory."""
    return ElementCodec()


def compact_linked_codec(num_children: int) -> CompactLinkedCodec:
    return CompactLinkedCodec(num_children)


def linked_codec(num_children: int) -> LinkedCodec:
    return LinkedCodec(num_children)


def tuple_codec(arity: int) -> TupleCodec:
    return TupleCodec(arity)
