"""Fixed-width record codecs for the storage schemes.

All schemes pack region labels as little-endian unsigned 32-bit integers.
Pointers are list-local entry indexes (equivalent to the paper's
page-number/byte-offset pairs under fixed-width records) with two reserved
sentinels:

* ``NULL_POINTER`` — the pointed node does not exist (paper Section III-A);
* ``UNMATERIALIZED_POINTER`` — the pointer exists conceptually but was not
  materialized under the LE\\_p heuristic (Section III-C); readers must fall
  back to sequential advancement.
"""

from __future__ import annotations

import copy
import struct
import sys
from array import array
from bisect import bisect_left
from typing import NamedTuple

from repro.errors import StorageError

#: Bulk column building reinterprets raw little-endian page bytes as native
#: arrays; fall back to struct iteration anywhere that identity breaks.
_NATIVE_U32 = sys.byteorder == "little" and array("I").itemsize == 4

NULL_POINTER = -1
UNMATERIALIZED_POINTER = -2

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


class ElementColumns:
    """Packed per-field columns of an element-record list.

    The decode-once substrate of the columnar fast path: ``starts``,
    ``ends`` and ``levels`` are flat :class:`array.array` columns aligned
    by entry index, so binary searches and cursor advancement compare raw
    ints without per-access page decoding or NamedTuple allocation.
    :meth:`entry` rebuilds the record object for the list's own readers
    (``read`` / ``scan`` / ``ListCursor``); the engines never call it —
    they carry an entry as its index into these columns.

    Columns are never mutated once their list is finalized or attached:
    only :meth:`append` and the codecs' ``extend_columns`` write them, and
    only while the list's columns are being built.  A SHIFT clone
    (:meth:`shifted`) relies on it and shares every column the shift
    leaves alone with its parent.
    """

    __slots__ = ("starts", "ends", "levels")
    kind = "element"

    def __init__(self):
        self.starts = array("I")
        self.ends = array("I")
        self.levels = array("I")

    def __len__(self) -> int:
        return len(self.starts)

    def append(self, entry: "ElementEntry") -> None:
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
    kind = "linked"

    def __init__(self, num_children: int):
        super().__init__()
        self.following = array("i")
        self.descendant = array("i")
        self.children = tuple(array("i") for _ in range(num_children))

    def append(self, entry: "LinkedEntry") -> None:
        self.starts.append(entry.start)
        self.ends.append(entry.end)
        self.levels.append(entry.level)
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


def _reinterpret_signed(column: array) -> array:
    """Reinterpret an unsigned 32-bit pointer column as signed.

    The on-page sentinel encodings are exactly the two's-complement images
    of the decoded values (``0xFFFFFFFF`` -> ``NULL_POINTER`` = -1,
    ``0xFFFFFFFE`` -> ``UNMATERIALIZED_POINTER`` = -2), so one bulk
    reinterpretation decodes a whole pointer column.  Real pointers are
    list entry indexes, far below 2**31.
    """
    return array("i", column.tobytes())


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


def _shift_fixed_page(
    raw: bytes,
    count: int,
    width: int,
    fields: int,
    label_fields: tuple[int, ...],
    ops,
) -> bytes:
    """Relabel the label fields of ``count`` fixed-width records.

    Every record is ``fields`` little-endian u32 values wide with region
    labels at the ``label_fields`` positions; everything else (levels,
    pointer slots, the zero-padded page tail) is copied through verbatim,
    so a monotone shift leaves the page byte-identical to a rebuild from
    the relabelled entries.
    """
    if not _NATIVE_U32:  # pragma: no cover - exotic platforms
        out = bytearray(raw[: count * width])
        u32 = struct.Struct("<I")
        for record in range(count):
            base = record * width
            for index in label_fields:
                (value,) = u32.unpack_from(out, base + index * 4)
                for cut, amount in ops:
                    if value >= cut:
                        value += amount
                u32.pack_into(out, base + index * 4, value)
        return bytes(out) + raw[count * width:]
    flat = array("I", raw[: count * width])
    for index in label_fields:
        flat[index::fields] = _shift_column(flat[index::fields], ops)
    return flat.tobytes() + raw[count * width:]


class ElementCodec:
    """Codec for element records: ``<start, end, level>``."""

    width = _LABEL.size

    def encode(self, entry: ElementEntry) -> bytes:
        return _LABEL.pack(entry.start, entry.end, entry.level)

    def decode(self, raw: bytes, offset: int = 0) -> ElementEntry:
        return ElementEntry(*_LABEL.unpack_from(raw, offset))

    def decode_page(self, raw: bytes, count: int) -> list[ElementEntry]:
        """Decode ``count`` records from page bytes in one bulk pass."""
        return list(map(
            ElementEntry._make, _LABEL.iter_unpack(raw[: count * self.width])
        ))

    def make_columns(self) -> ElementColumns:
        return ElementColumns()

    def extend_columns(
        self, columns: ElementColumns, raw: bytes, count: int
    ) -> None:
        """Bulk-append ``count`` records from raw page bytes to columns."""
        if not _NATIVE_U32:  # pragma: no cover - exotic platforms
            for offset in range(0, count * self.width, self.width):
                columns.append(self.decode(raw, offset))
            return
        flat = array("I", raw[: count * self.width])
        columns.starts.extend(flat[0::3])
        columns.ends.extend(flat[1::3])
        columns.levels.extend(flat[2::3])

    def shift_page(self, raw: bytes, count: int, ops) -> bytes:
        """Bulk-relabel the start/end labels of ``count`` records."""
        return _shift_fixed_page(raw, count, self.width, 3, (0, 1), ops)


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

    def extend_columns(
        self, columns: LinkedColumns, raw: bytes, count: int
    ) -> None:
        """Bulk-append ``count`` records from raw page bytes to columns."""
        if not _NATIVE_U32:  # pragma: no cover - exotic platforms
            for offset in range(0, count * self.width, self.width):
                columns.append(self.decode(raw, offset))
            return
        stride = 5 + self.num_children
        flat = array("I", raw[: count * self.width])
        columns.starts.extend(flat[0::stride])
        columns.ends.extend(flat[1::stride])
        columns.levels.extend(flat[2::stride])
        columns.following.extend(_reinterpret_signed(flat[3::stride]))
        columns.descendant.extend(_reinterpret_signed(flat[4::stride]))
        for slot, column in enumerate(columns.children):
            column.extend(_reinterpret_signed(flat[5 + slot :: stride]))

    def shift_page(self, raw: bytes, count: int, ops) -> bytes:
        """Bulk-relabel start/end; pointer slots are entry indexes and
        survive a shift untouched."""
        return _shift_fixed_page(
            raw, count, self.width, 5 + self.num_children, (0, 1), ops
        )


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

    def shift_page(self, raw: bytes, count: int, ops) -> bytes:
        """Bulk-relabel the start/end labels of every tuple component."""
        label_fields = tuple(
            index
            for component in range(self.arity)
            for index in (3 * component, 3 * component + 1)
        )
        return _shift_fixed_page(
            raw, count, self.width, 3 * self.arity, label_fields, ops
        )


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

    def decode_page(self, raw: bytes, count: int) -> list[tuple[int, ...]]:
        width = self.width
        unpack_from = self._struct.unpack_from
        return [unpack_from(raw, offset)
                for offset in range(0, count * width, width)]


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

    @staticmethod
    def _two_bit(value: int) -> int:
        if value == NULL_POINTER:
            return 0
        if value == UNMATERIALIZED_POINTER:
            return 1
        return 2

    def make_columns(self) -> LinkedColumns:
        # Variable-width records cannot be bulk-reinterpreted; the slotted
        # list builds these columns by appending decoded entries.
        return LinkedColumns(self.num_children)

    def encode(self, entry: LinkedEntry) -> bytes:
        if len(entry.children) != self.num_children:
            raise StorageError(
                f"expected {self.num_children} child pointers,"
                f" got {len(entry.children)}"
            )
        flags = self._two_bit(entry.following)
        flags |= self._two_bit(entry.descendant) << 2
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
