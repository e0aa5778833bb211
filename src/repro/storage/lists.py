"""Paged record lists and read cursors.

A list's one in-memory form is its **packed columns**
(:mod:`repro.storage.records`): one flat array per record field, filled
by :meth:`~StoredList.append` / ``extend`` or handed over whole
(:meth:`~StoredList.from_columns`).  Pages are their serialization:
``finalize`` writes them from the columns, and :meth:`~StoredList.attach`
— re-opening a list from its manifest — is the only place pages are
decoded.  Every read (``read``, ``scan``, :class:`ListCursor`) serves
records from the columns, while the buffer pool's
:meth:`~repro.storage.pager.BufferPool.touch` mirror keeps
logical/physical read accounting and LRU residency those of a
record-at-a-time read through the pool.

:class:`StoredList` packs fixed-width records into fixed slots,
:class:`SlottedList` variable-width ones into slotted pages;
:class:`ListCursor` provides the sequential/seekable access pattern every
join algorithm in the paper uses.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, Sequence

from repro.errors import StorageError, StoreCorrupt
from repro.resilience.guard import page_checksum
from repro.storage.pager import Pager
from repro.storage.records import extend_columns, pack_pages

_DECODER_IDS = iter(range(1, 1 << 30))
_LABEL_PAIR = struct.Struct("<II")


class _ColumnList:
    """What both page layouts share: the columns, the record API over them
    and the accounted reads.  A layout writes its pages from the columns
    (``_write_pages``), decodes them at attach time (``_build_columns``)
    and maps entry indexes to pages (``page_map``)."""

    def __init__(self, pager: Pager, codec, name: str):
        self.pager = pager
        self.codec = codec
        self.name = name
        self._decoder_id = next(_DECODER_IDS)
        self._columns = codec.make_columns()
        self._finalized = False
        self._page_map: tuple[list[int], array] | None = None

    # -- construction -----------------------------------------------------------

    def append(self, record) -> int:
        """Append one record to the columns; returns its entry index."""
        if self._finalized:
            raise StorageError(f"list {self.name!r} is finalized")
        index = len(self._columns)
        self._columns.append(record)
        return index

    def extend(self, records) -> None:
        for record in records:
            self.append(record)

    def finalize(self):
        """Write the pages from the columns and freeze the list."""
        if not self._finalized:
            self._write_pages()
            self._finalized = True
        return self

    @classmethod
    def from_columns(cls, pager: Pager, codec, columns, name: str = "list"):
        """A finalized list whose records are ``columns`` (built by the
        caller, and never mutated after)."""
        stored = cls(pager, codec, name=name)
        stored._columns = columns
        return stored.finalize()

    @classmethod
    def attach(cls, pager: Pager, codec, manifest: dict, name: str = "list"):
        """Reconstruct a finalized list over existing pages: the one place
        pages are decoded into columns."""
        stored = cls(pager, codec, name=name)
        stored._build_columns(manifest)
        stored._finalized = True
        return stored

    @property
    def columns(self):
        """The packed columns: the list's records, field by field."""
        return self._columns

    # -- metadata ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def page_of(self, index: int) -> tuple[int, int]:
        """Map an entry index to its ``(page_id, slot)`` address."""
        self._check_index(index)
        page_ids, breaks = self.page_map()
        page = bisect_right(breaks, index, 0, len(page_ids)) - 1
        return page_ids[page], index - breaks[page]

    def _page_id(self, index: int) -> int:
        page_ids, breaks = self.page_map()
        return page_ids[bisect_right(breaks, index, 0, len(page_ids)) - 1]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self):
            raise StorageError(
                f"entry index {index} out of range for list {self.name!r}"
                f" of length {len(self)}"
            )

    def _check_finalized(self) -> None:
        if not self._finalized:
            raise StorageError(f"list {self.name!r} not finalized")

    # -- reads ---------------------------------------------------------------------

    def read(self, index: int):
        """Read one record from the columns, the page access accounted."""
        self._check_finalized()
        self._check_index(index)
        self.touch_index(index)
        return self._columns.entry(index)

    def touch_index(self, index: int) -> None:
        """Account a columnar access of entry ``index`` (no decode)."""
        self.pager.pool.touch(self._page_id(index), self._decoder_id)

    def touch_all(self) -> None:
        """Account a scan of every entry without building a record: per
        page, one ``touch_run`` of the accesses :meth:`scan` makes."""
        touch_run = self.pager.pool.touch_run
        page_ids, breaks = self.page_map()
        for page, page_id in enumerate(page_ids):
            touch_run(page_id, self._decoder_id, breaks[page + 1] - breaks[page])

    def scan(self) -> Iterator:
        """Yield all records in order, each access accounted."""
        self._check_finalized()
        touch = self.pager.pool.touch
        decoder_id = self._decoder_id
        entry = self._columns.entry
        page_ids, breaks = self.page_map()
        for page, page_id in enumerate(page_ids):
            for index in range(breaks[page], breaks[page + 1]):
                touch(page_id, decoder_id)
                yield entry(index)

    def cursor(self) -> "ListCursor":
        self._check_finalized()
        return ListCursor(self)


class StoredList(_ColumnList):
    """A sequence of fixed-width records stored across pages.

    Build with :meth:`append` calls (or :meth:`from_columns`) followed by
    :meth:`finalize`; afterwards the list is immutable and randomly
    addressable by entry index.
    """

    def __init__(self, pager: Pager, codec, name: str = "list"):
        self.records_per_page = pager.page_size // codec.width
        if self.records_per_page == 0:
            raise StorageError(
                f"record width {codec.width} exceeds page size {pager.page_size}"
            )
        super().__init__(pager, codec, name)
        self._page_ids: list[int] = []

    def _write_pages(self) -> None:
        page_file = self.pager.page_file
        for payload in pack_pages(self._columns, self.records_per_page):
            page_id = page_file.allocate()
            page_file.write_page(page_id, payload)
            self._page_ids.append(page_id)

    def _build_columns(self, manifest: dict) -> None:  # repro-lint: disable=RL203 (attach-time column build; reads accounted at access time via touch)
        """Decode the manifest's pages into the columns (uncounted reads).

        Runs at attach time — before any measured evaluation — so the
        build never pollutes the run's I/O statistics.
        """
        self._page_ids = list(manifest["page_ids"])
        read_raw = self.pager.page_file.read_page_raw
        remaining = int(manifest["length"])
        for page_id in self._page_ids:
            count = min(remaining, self.records_per_page)
            # Attach-time read, deliberately uncounted (docstring).
            extend_columns(self._columns, read_raw(page_id), count)
            remaining -= count

    def page_map(self) -> tuple[list[int], array]:
        """``(page_ids, breaks)`` where ``breaks[k]`` is the first entry
        index on page ``k`` (with a final sentinel of ``len(self)``)."""
        cached = self._page_map
        if cached is None:
            per_page = self.records_per_page
            breaks = array("q", range(0, len(self._page_ids) * per_page,
                                      per_page))
            breaks.append(len(self))
            cached = (self._page_ids, breaks)
            if self._finalized:
                self._page_map = cached
        return cached

    def _page_id(self, index: int) -> int:
        return self._page_ids[index // self.records_per_page]

    # -- maintenance -----------------------------------------------------------

    def shifted(self, ops: Sequence[tuple[int, int]]) -> "StoredList":
        """Copy-on-write clone with every record's region labels run
        through the piecewise shifts ``ops`` (incremental-maintenance
        SHIFT repair).

        The shift map is monotone, so membership, order, page fill and
        entry indexes are all preserved.  The clone's columns are derived
        from this list's (``columns.shifted``) and its pages written from
        them by :meth:`finalize`'s writer: no record is decoded.  Pages
        are freshly allocated — the source pages are never patched — so a
        crash before the manifest commit leaves the original list intact.
        """
        self._check_finalized()
        return StoredList.from_columns(
            self.pager, self.codec, self._columns.shifted(ops), name=self.name
        )

    # -- persistence ---------------------------------------------------------

    def manifest(self) -> dict:
        """Metadata needed to re-attach this list to its page file."""
        return {"page_ids": list(self._page_ids), "length": len(self)}

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def size_bytes(self) -> int:
        """Payload bytes actually occupied by records."""
        return len(self) * self.codec.width


class SlottedList(_ColumnList):
    """A sequence of variable-width records in slotted pages.

    Page layout: ``u16 record-count``, ``u16 offset`` per record (from the
    page start), then the packed records.  An in-memory page directory maps
    an entry index to its page, so the read API matches
    :class:`StoredList` exactly (records stay addressable by list-local
    entry index, which is what the LE_p pointers store).
    """

    _HEADER = 2
    _SLOT = 2

    def __init__(self, pager: Pager, codec, name: str = "list"):
        if codec.max_width + self._HEADER + self._SLOT > pager.page_size:
            raise StorageError(
                f"record width {codec.max_width} exceeds page size"
                f" {pager.page_size}"
            )
        super().__init__(pager, codec, name)
        # directory rows: (first_index, count, page_id)
        self._directory: list[tuple[int, int, int]] = []
        self._payload_bytes = 0

    def _write_pages(self) -> None:
        """Pack the codec's records into pages in order: a page takes
        records until the next one would overflow it."""
        page_size = self.pager.page_size
        pending: list[bytes] = []
        used = self._HEADER
        first_index = 0
        for raw in self.codec.pack_records(self._columns):
            used += self._SLOT + len(raw)
            if used > page_size and pending:
                first_index = self._write_page(first_index, pending)
                pending = []
                used = self._HEADER + self._SLOT + len(raw)
            pending.append(raw)
        if pending:
            self._write_page(first_index, pending)

    def _write_page(self, first_index: int, records: list[bytes]) -> int:
        """Write one slotted page holding ``records``, the first of which
        is entry ``first_index``; returns the next page's first index."""
        count = len(records)
        offsets = accumulate(map(len, records[:-1]),
                             initial=self._HEADER + count * self._SLOT)
        payload = struct.pack(f"<{count + 1}H", count, *offsets)
        payload += b"".join(records)
        page_id = self.pager.page_file.allocate()
        self.pager.page_file.write_page(page_id, payload)
        self._directory.append((first_index, count, page_id))
        self._payload_bytes += len(payload)
        return first_index + count

    def _build_columns(self, manifest: dict) -> None:  # repro-lint: disable=RL203 (attach-time column build; reads accounted at access time via touch)
        """Decode the manifest's pages into the columns (uncounted reads).

        A page's slot offsets go straight to the codec's bulk decoder
        (``unpack_records``), which reads each record by the shape of its
        flag word and fills the columns a page at a time.  A page whose
        header disagrees with the directory, or whose slots or records
        fall outside it, raises :class:`~repro.errors.StoreCorrupt`
        naming the page; checksums stay with the reads that follow.
        """
        self._directory = [tuple(row) for row in manifest["directory"]]
        self._payload_bytes = int(manifest["payload_bytes"])
        unpack_records = self.codec.unpack_records
        read_raw = self.pager.page_file.read_page_raw
        for __, count, page_id in self._directory:
            # Attach-time read, deliberately uncounted (docstring).
            raw = read_raw(page_id)
            slots = self._HEADER + count * self._SLOT
            try:
                stored, *offsets = struct.unpack_from(f"<{count + 1}H", raw)
                if stored != count or min(offsets, default=slots) < slots:
                    raise StorageError("slot directory out of bounds")
                unpack_records(raw, offsets, self._columns)
            except (StorageError, struct.error) as exc:
                raise StoreCorrupt(
                    f"page {page_id} of list {self.name!r}: {exc}",
                    pages=(page_id,),
                ) from exc

    def page_map(self) -> tuple[list[int], array]:
        """``(page_ids, breaks)`` where ``breaks[k]`` is the first entry
        index on page ``k`` (with a final sentinel of ``len(self)``)."""
        cached = self._page_map
        if cached is None:
            page_ids = [row[2] for row in self._directory]
            breaks = array("q", (row[0] for row in self._directory))
            breaks.append(len(self))
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
        byte-for-byte.  No record is decoded or re-encoded.  Every page
        still goes to a fresh page id; see :meth:`StoredList.shifted`.

        A verbatim copy keeps its source's recorded CRC, so damage stays
        visible on the copy.  A re-packed page is checked against its
        source's recorded CRC first and raises
        :class:`~repro.errors.StoreCorrupt` naming the source page on a
        mismatch: the commit would record the copy's CRC fresh and
        launder the damage.
        """
        self._check_finalized()
        old = self._columns
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
            # A verbatim copy carries its source's recorded CRC.
            crc = page_file.expected_crc.get(page_id)
            if (starts != old.starts[first_index:stop]
                    or ends != old.ends[first_index:stop]):
                # A re-packed copy gets a fresh CRC at commit: its
                # source must be intact, or the copy would launder it.
                if crc is not None and page_checksum(raw) != crc:
                    raise StoreCorrupt(
                        f"page {page_id} of list {self.name!r} failed its"
                        f" checksum (expected {crc}) before a SHIFT"
                        " re-packed it",
                        pages=(page_id,),
                    )
                raw = bytearray(raw)
                offsets = struct.unpack_from(f"<{count}H", raw, self._HEADER)
                for offset, start, end in zip(offsets, starts, ends):
                    pack_into(raw, offset + labels_at, start, end)
                crc = None
            new_id = page_file.allocate()
            page_file.write_page(new_id, raw)
            if crc is not None:
                page_file.expected_crc[new_id] = crc
            clone._directory.append((first_index, count, new_id))
        clone._payload_bytes = self._payload_bytes
        clone._finalized = True
        return clone

    # -- persistence ---------------------------------------------------------

    def manifest(self) -> dict:
        """Metadata needed to re-attach this list to its page file."""
        return {
            "directory": [list(row) for row in self._directory],
            "length": len(self),
            "payload_bytes": self._payload_bytes,
        }

    @property
    def num_pages(self) -> int:
        return len(self._directory)

    @property
    def size_bytes(self) -> int:
        """Occupied bytes: headers, slot directories and packed records."""
        return self._payload_bytes


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
        columns = self._columns = stored_list.columns
        self._length = len(stored_list)
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
        if position >= self._length:
            self.current = None
            return
        if position >= self._page_hi:
            page = self._page + 1
            self._page = page
            self._page_hi = self._breaks[page + 1]
        self._touch(self._page_ids[self._page], self._decoder_id)
        self.current = self._columns.entry(position)

    def seek(self, index: int) -> None:
        """Position the cursor on entry ``index`` (or past the end)."""
        if index >= self._length:
            self.position = self._length
            self.current = None
            return
        if index < 0:
            raise StorageError(f"cannot seek to negative index {index}")
        self.position = index
        page = bisect_right(self._breaks, index, 0, len(self._page_ids)) - 1
        self._page = page
        self._page_hi = self._breaks[page + 1]
        self._touch(self._page_ids[page], self._decoder_id)
        self.current = self._columns.entry(index)

    def peek(self, index: int):
        """Read an arbitrary entry without moving the cursor."""
        return self.list.read(index)
