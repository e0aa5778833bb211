"""Paged fixed-width record lists and read cursors.

A :class:`StoredList` owns a contiguous run of pages inside a pager and
packs fixed-width records into them.  Reads are served through the pager's
buffer pool; pages are decoded into record tuples at most once per pool
residency.  :class:`ListCursor` provides the sequential/seekable access
pattern every join algorithm in the paper uses.

Finalized lists whose codec supports it additionally carry **packed
columns** (:mod:`repro.storage.records`): one flat array per record field,
built once at finalize/attach time from the raw pages.  Columnar reads
serve field values without touching the decoded-page path, while the
buffer pool's :meth:`~repro.storage.pager.BufferPool.touch` mirror keeps
logical/physical read accounting and LRU residency byte-identical to
pool-served reads.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from typing import Iterator, Sequence

from repro.errors import StorageError
from repro.storage.pager import Pager

_DECODER_IDS = iter(range(1, 1 << 30))
_LABEL_PAIR = struct.Struct("<II")


class StoredList:
    """A sequence of fixed-width records stored across pages.

    Build with :meth:`append` calls followed by :meth:`finalize`; afterwards
    the list is immutable and randomly addressable by entry index.

    Args:
        columnar: build packed columns at finalize/attach time when the
            codec supports them.  Disabled for throwaway lists (e.g. the
            disk-mode spill) where the build cost buys nothing.
    """

    def __init__(self, pager: Pager, codec, name: str = "list",
                 columnar: bool = True):
        self.pager = pager
        self.codec = codec
        self.name = name
        self.records_per_page = pager.page_size // codec.width
        if self.records_per_page == 0:
            raise StorageError(
                f"record width {codec.width} exceeds page size {pager.page_size}"
            )
        self._decoder_id = next(_DECODER_IDS)
        self._page_ids: list[int] = []
        self._length = 0
        self._write_buffer = bytearray()
        self._finalized = False
        self._columnar = columnar and hasattr(codec, "extend_columns")
        self._columns = None
        self._page_map: tuple[list[int], array] | None = None

    # -- construction -----------------------------------------------------------

    def append(self, record) -> int:
        """Append one record; returns its entry index."""
        if self._finalized:
            raise StorageError(f"list {self.name!r} is finalized")
        raw = self.codec.encode(record)
        self._write_buffer.extend(raw)
        index = self._length
        self._length += 1
        if len(self._write_buffer) + self.codec.width > self.pager.page_size:
            self._flush_page()
        return index

    def extend(self, records) -> None:
        for record in records:
            self.append(record)

    def _flush_page(self) -> None:
        page_id = self.pager.page_file.allocate()
        self.pager.page_file.write_page(page_id, bytes(self._write_buffer))
        self._page_ids.append(page_id)
        self._write_buffer.clear()

    def finalize(self) -> "StoredList":
        """Flush pending records and freeze the list."""
        if self._finalized:
            return self
        if self._write_buffer:
            self._flush_page()
        self._finalized = True
        self._build_columns()
        return self

    def _build_columns(self) -> None:  # repro-lint: disable=RL203 (one-time column build; reads accounted at access time via touch)
        """Decode every page once into packed columns (uncounted reads).

        Runs at finalize/attach time — before any measured evaluation — so
        the build never pollutes the run's I/O statistics.
        """
        if not self._columnar or self._columns is not None:
            return
        columns = self.codec.make_columns()
        extend = self.codec.extend_columns
        read_raw = self.pager.page_file.read_page_raw
        per_page = self.records_per_page
        remaining = self._length
        for page_id in self._page_ids:
            count = per_page if remaining >= per_page else remaining
            # Build/attach-time read, deliberately uncounted (docstring).
            extend(columns, read_raw(page_id), count)
            remaining -= count
        self._columns = columns

    @property
    def columns(self):
        """Packed columns (empty for an empty list); None only for a codec
        without columns or a list built with ``columnar=False``."""
        return self._columns

    def page_map(self) -> tuple[list[int], array]:
        """``(page_ids, breaks)`` where ``breaks[k]`` is the first entry
        index on page ``k`` (with a final sentinel of ``len(self)``)."""
        cached = self._page_map
        if cached is None:
            per_page = self.records_per_page
            breaks = array("q", range(0, len(self._page_ids) * per_page,
                                      per_page))
            breaks.append(self._length)
            cached = (self._page_ids, breaks)
            if self._finalized:
                self._page_map = cached
        return cached

    # -- maintenance -----------------------------------------------------------

    def shifted(self, ops: Sequence[tuple[int, int]]) -> "StoredList":  # repro-lint: disable=RL203 (maintenance copy-on-write relabel; columns derived, not read)
        """Copy-on-write clone with every record's region labels run
        through the piecewise shifts ``ops`` (incremental-maintenance
        SHIFT repair).

        The shift map is monotone, so membership, order, page fill and
        entry indexes are all preserved.  The codec relabels each page in
        one bulk pass, and the clone's columns are derived from this
        list's (:meth:`~repro.storage.records.ElementColumns.shifted`):
        no record is decoded.  Repaired pages are freshly allocated — the
        source pages are never patched — so a crash before the manifest
        commit leaves the original list intact.
        """
        if not self._finalized:
            raise StorageError(f"list {self.name!r} not finalized")
        clone = StoredList(self.pager, self.codec, name=self.name)
        page_file = self.pager.page_file
        shift_page = self.codec.shift_page
        per_page = self.records_per_page
        remaining = self._length
        for page_id in self._page_ids:
            count = per_page if remaining >= per_page else remaining
            # Maintenance-time rewrite, outside any measured evaluation.
            raw = page_file.read_page_raw(page_id)
            new_id = page_file.allocate()
            page_file.write_page(new_id, shift_page(raw, count, ops))
            clone._page_ids.append(new_id)
            remaining -= count
        clone._length = self._length
        clone._finalized = True
        if self._columns is not None:
            clone._columns = self._columns.shifted(ops)
        return clone

    # -- persistence ---------------------------------------------------------

    def manifest(self) -> dict:
        """Metadata needed to re-attach this list to its page file."""
        return {"page_ids": list(self._page_ids), "length": self._length}

    @classmethod
    def attach(cls, pager: Pager, codec, manifest: dict,
               name: str = "list", columnar: bool = True) -> "StoredList":
        """Reconstruct a finalized list over existing pages."""
        stored = cls(pager, codec, name=name, columnar=columnar)
        stored._page_ids = list(manifest["page_ids"])
        stored._length = int(manifest["length"])
        stored._finalized = True
        stored._build_columns()
        return stored

    # -- metadata ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def size_bytes(self) -> int:
        """Payload bytes actually occupied by records."""
        return self._length * self.codec.width

    def page_of(self, index: int) -> tuple[int, int]:
        """Map an entry index to its ``(page_id, slot)`` address."""
        self._check_index(index)
        return (
            self._page_ids[index // self.records_per_page],
            index % self.records_per_page,
        )

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._length:
            raise StorageError(
                f"entry index {index} out of range for list {self.name!r}"
                f" of length {self._length}"
            )

    # -- reads ---------------------------------------------------------------------

    def read(self, index: int):
        """Read one record (buffer pool, or columns with mirrored stats)."""
        if not self._finalized:
            raise StorageError(f"list {self.name!r} not finalized")
        self._check_index(index)
        page_number = index // self.records_per_page
        columns = self._columns
        if columns is not None:
            self.pager.pool.touch(self._page_ids[page_number],
                                  self._decoder_id)
            return columns.entry(index)
        decoder = (
            self._decode_final_page
            if page_number == len(self._page_ids) - 1
            else self._decode_page
        )
        page = self.pager.pool.get(
            self._page_ids[page_number], self._decoder_id, decoder
        )
        return page[index % self.records_per_page]

    def touch_index(self, index: int) -> None:
        """Account a columnar access of entry ``index`` (no decode)."""
        self.pager.pool.touch(
            self._page_ids[index // self.records_per_page], self._decoder_id
        )

    def _decode_page(self, raw: bytes, count: int | None = None) -> Sequence:
        if count is None:
            count = self.records_per_page
        decode_page = getattr(self.codec, "decode_page", None)
        if decode_page is not None:
            return decode_page(raw, count)
        decode = self.codec.decode
        width = self.codec.width
        return [decode(raw, offset) for offset in range(0, count * width, width)]

    def _decode_final_page(self, raw: bytes) -> Sequence:
        """Decode only the occupied slots of the (possibly partial) last
        page — trailing slots hold stale bytes, not records."""
        tail = self._length - (len(self._page_ids) - 1) * self.records_per_page
        return self._decode_page(raw, tail)

    def scan(self) -> Iterator:
        """Yield all records in order (through the buffer pool)."""
        columns = self._columns
        if columns is None:
            for index in range(self._length):
                yield self.read(index)
            return
        touch = self.pager.pool.touch
        decoder_id = self._decoder_id
        entry = columns.entry
        page_ids = self._page_ids
        per_page = self.records_per_page
        for index in range(self._length):
            touch(page_ids[index // per_page], decoder_id)
            yield entry(index)

    def cursor(self) -> "ListCursor":
        return ListCursor(self)


class SlottedList:
    """A sequence of variable-width records in slotted pages.

    Page layout: ``u16 record-count``, ``u16 offset`` per record (from the
    page start), then the packed records.  An in-memory page directory maps
    an entry index to its page, so the read API matches
    :class:`StoredList` exactly (records stay addressable by list-local
    entry index, which is what the LE_p pointers store).
    """

    _HEADER = 2
    _SLOT = 2

    def __init__(self, pager: Pager, codec, name: str = "list",
                 columnar: bool = True):
        self.pager = pager
        self.codec = codec
        self.name = name
        if codec.max_width + self._HEADER + self._SLOT > pager.page_size:
            raise StorageError(
                f"record width {codec.max_width} exceeds page size"
                f" {pager.page_size}"
            )
        self._decoder_id = next(_DECODER_IDS)
        # directory rows: (first_index, count, page_id)
        self._directory: list[tuple[int, int, int]] = []
        self._length = 0
        self._payload_bytes = 0
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._finalized = False
        self._columnar = columnar and hasattr(codec, "make_columns")
        self._columns = None
        self._page_map: tuple[list[int], array] | None = None

    # -- construction ------------------------------------------------------------

    def append(self, record) -> int:
        if self._finalized:
            raise StorageError(f"list {self.name!r} is finalized")
        raw = self.codec.encode(record)
        projected = (
            self._HEADER
            + (len(self._pending) + 1) * self._SLOT
            + self._pending_bytes
            + len(raw)
        )
        if projected > self.pager.page_size and self._pending:
            self._flush_page()
        self._pending.append(raw)
        self._pending_bytes += len(raw)
        index = self._length
        self._length += 1
        return index

    def extend(self, records) -> None:
        for record in records:
            self.append(record)

    def _flush_page(self) -> None:
        count = len(self._pending)
        header = bytearray(struct.pack("<H", count))
        offset = self._HEADER + count * self._SLOT
        offsets = []
        for raw in self._pending:
            offsets.append(offset)
            offset += len(raw)
        for value in offsets:
            header += struct.pack("<H", value)
        payload = bytes(header) + b"".join(self._pending)
        page_id = self.pager.page_file.allocate()
        self.pager.page_file.write_page(page_id, payload)
        first_index = self._length - len(self._pending)
        self._directory.append((first_index, count, page_id))
        self._payload_bytes += len(payload)
        self._pending = []
        self._pending_bytes = 0

    def finalize(self) -> "SlottedList":
        if self._finalized:
            return self
        if self._pending:
            self._flush_page()
        self._finalized = True
        self._build_columns()
        return self

    def _build_columns(self) -> None:  # repro-lint: disable=RL203 (one-time column build; reads accounted at access time via touch)
        """Decode every page once into packed columns (uncounted reads).

        Variable-width records cannot be bulk-reinterpreted, so this decodes
        each page through the codec and appends the entries.
        """
        if not self._columnar or self._columns is not None:
            return
        columns = self.codec.make_columns()
        append = columns.append
        read_raw = self.pager.page_file.read_page_raw
        for __, __, page_id in self._directory:
            # Build/attach-time read, deliberately uncounted (docstring).
            for entry in self._decode_page(read_raw(page_id)):
                append(entry)
        self._columns = columns

    @property
    def columns(self):
        """Packed columns (empty for an empty list); None only for a codec
        without columns or a list built with ``columnar=False``."""
        return self._columns

    def page_map(self) -> tuple[list[int], array]:
        """``(page_ids, breaks)`` where ``breaks[k]`` is the first entry
        index on page ``k`` (with a final sentinel of ``len(self)``)."""
        cached = self._page_map
        if cached is None:
            page_ids = [row[2] for row in self._directory]
            breaks = array("q", (row[0] for row in self._directory))
            breaks.append(self._length)
            cached = (page_ids, breaks)
            if self._finalized:
                self._page_map = cached
        return cached

    # -- maintenance -----------------------------------------------------------

    def shifted(self, ops: Sequence[tuple[int, int]]) -> "SlottedList":  # repro-lint: disable=RL203 (maintenance copy-on-write relabel; columns derived, not read)
        """Copy-on-write clone with all region labels shifted.

        The clone's columns are derived from this list's
        (:meth:`~repro.storage.records.ElementColumns.shifted`), and its
        pages are written from them: labels occupy fixed-width fields
        inside the variable-width records, so a page whose labels moved
        gets each record's label pair packed at the offset its slot
        names, and a page whose labels did not move is copied
        byte-for-byte.  No record is decoded, and a list without columns
        (``columnar=False``) cannot be shifted.  Every page still goes to
        a fresh page id; see :meth:`StoredList.shifted`.
        """
        if not self._finalized:
            raise StorageError(f"list {self.name!r} not finalized")
        old = self._columns
        if old is None:
            raise StorageError(f"list {self.name!r} has no columns to shift")
        clone = SlottedList(self.pager, self.codec, name=self.name)
        new = clone._columns = old.shifted(ops)
        page_file = self.pager.page_file
        pack_into = _LABEL_PAIR.pack_into
        labels_at = self.codec.LABELS_AT
        for first_index, count, page_id in self._directory:
            stop = first_index + count
            starts = new.starts[first_index:stop]
            ends = new.ends[first_index:stop]
            # Maintenance-time rewrite, outside any measured evaluation.
            raw = page_file.read_page_raw(page_id)
            if (starts != old.starts[first_index:stop]
                    or ends != old.ends[first_index:stop]):
                raw = bytearray(raw)
                offsets = struct.unpack_from(f"<{count}H", raw, self._HEADER)
                for offset, start, end in zip(offsets, starts, ends):
                    pack_into(raw, offset + labels_at, start, end)
            new_id = page_file.allocate()
            page_file.write_page(new_id, raw)
            clone._directory.append((first_index, count, new_id))
        clone._length = self._length
        clone._payload_bytes = self._payload_bytes
        clone._finalized = True
        return clone

    # -- persistence ---------------------------------------------------------

    def manifest(self) -> dict:
        """Metadata needed to re-attach this list to its page file."""
        return {
            "directory": [list(row) for row in self._directory],
            "length": self._length,
            "payload_bytes": self._payload_bytes,
        }

    @classmethod
    def attach(cls, pager: Pager, codec, manifest: dict,
               name: str = "list", columnar: bool = True) -> "SlottedList":
        """Reconstruct a finalized slotted list over existing pages."""
        stored = cls(pager, codec, name=name, columnar=columnar)
        stored._directory = [tuple(row) for row in manifest["directory"]]
        stored._length = int(manifest["length"])
        stored._payload_bytes = int(manifest["payload_bytes"])
        stored._finalized = True
        stored._build_columns()
        return stored

    # -- metadata ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def num_pages(self) -> int:
        return len(self._directory)

    @property
    def size_bytes(self) -> int:
        """Occupied bytes: headers, slot directories and packed records."""
        return self._payload_bytes

    def page_of(self, index: int) -> tuple[int, int]:
        self._check_index(index)
        row = self._locate(index)
        return (row[2], index - row[0])

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._length:
            raise StorageError(
                f"entry index {index} out of range for list {self.name!r}"
                f" of length {self._length}"
            )

    def _locate(self, index: int) -> tuple[int, int, int]:
        __, breaks = self.page_map()
        position = bisect_right(breaks, index, 0, len(self._directory)) - 1
        return self._directory[position]

    # -- reads ---------------------------------------------------------------------

    def read(self, index: int):
        if not self._finalized:
            raise StorageError(f"list {self.name!r} not finalized")
        self._check_index(index)
        first_index, count, page_id = self._locate(index)
        columns = self._columns
        if columns is not None:
            self.pager.pool.touch(page_id, self._decoder_id)
            return columns.entry(index)
        page = self.pager.pool.get(page_id, self._decoder_id, self._decode_page)
        return page[index - first_index]

    def touch_index(self, index: int) -> None:
        """Account a columnar access of entry ``index`` (no decode)."""
        self.pager.pool.touch(self._locate(index)[2], self._decoder_id)

    def _decode_page(self, raw: bytes) -> Sequence:
        (count,) = struct.unpack_from("<H", raw, 0)
        entries = []
        for slot in range(count):
            (offset,) = struct.unpack_from(
                "<H", raw, self._HEADER + slot * self._SLOT
            )
            entry, __ = self.codec.decode(raw, offset)
            entries.append(entry)
        return entries

    def scan(self) -> Iterator:
        columns = self._columns
        if columns is None:
            for index in range(self._length):
                yield self.read(index)
            return
        touch = self.pager.pool.touch
        decoder_id = self._decoder_id
        entry = columns.entry
        for first_index, count, page_id in self._directory:
            for index in range(first_index, first_index + count):
                touch(page_id, decoder_id)
                yield entry(index)

    def cursor(self) -> "ListCursor":
        return ListCursor(self)


class ListCursor:
    """Forward cursor with seek support over a :class:`StoredList`.

    Exposes the cursor discipline of the paper's algorithms: ``current`` is
    the entry under the cursor (None past the end), :meth:`advance` moves to
    the next entry, and :meth:`seek` jumps to an arbitrary entry index (used
    when dereferencing materialized pointers).
    """

    __slots__ = ("list", "position", "current", "_columns", "_touch",
                 "_decoder_id", "_page_ids", "_breaks", "_page", "_page_hi",
                 "_length")

    def __init__(self, stored_list: StoredList):
        self.list = stored_list
        self.position = 0
        columns = stored_list._columns
        self._columns = columns
        self._length = len(stored_list)
        if columns is None:
            self.current = stored_list.read(0) if self._length else None
            return
        self._touch = stored_list.pager.pool.touch
        self._decoder_id = stored_list._decoder_id
        page_ids, breaks = stored_list.page_map()
        self._page_ids = page_ids
        self._breaks = breaks
        self._page = 0
        if self._length:
            self._page_hi = breaks[1]
            self._touch(page_ids[0], self._decoder_id)
            self.current = columns.entry(0)
        else:
            self._page_hi = 0
            self.current = None

    @property
    def exhausted(self) -> bool:
        return self.current is None

    def advance(self) -> None:
        """Move to the next entry (no-op past the end)."""
        if self.current is None:
            return
        position = self.position + 1
        self.position = position
        columns = self._columns
        if columns is None:
            if position < self._length:
                self.current = self.list.read(position)
            else:
                self.current = None
            return
        if position >= self._length:
            self.current = None
            return
        if position >= self._page_hi:
            page = self._page + 1
            self._page = page
            self._page_hi = self._breaks[page + 1]
        self._touch(self._page_ids[self._page], self._decoder_id)
        self.current = columns.entry(position)

    def seek(self, index: int) -> None:
        """Position the cursor on entry ``index`` (or past the end)."""
        if index >= self._length:
            self.position = self._length
            self.current = None
            return
        if index < 0:
            raise StorageError(f"cannot seek to negative index {index}")
        self.position = index
        columns = self._columns
        if columns is None:
            self.current = self.list.read(index)
            return
        page = bisect_right(self._breaks, index, 0, len(self._page_ids)) - 1
        self._page = page
        self._page_hi = self._breaks[page + 1]
        self._touch(self._page_ids[page], self._decoder_id)
        self.current = columns.entry(index)

    def peek(self, index: int):
        """Read an arbitrary entry without moving the cursor."""
        return self.list.read(index)
