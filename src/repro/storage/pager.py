"""Page-based storage substrate with I/O accounting.

Materialized views are serialized into fixed-size pages inside a
:class:`PageFile`.  All reads go through a :class:`BufferPool` with LRU
replacement, so every engine's page-touch behaviour is observable:

* **logical reads** — page requests issued by cursors (scans and pointer
  dereferences alike);
* **physical reads** — requests that missed the pool and had to touch the
  backing file.

The paper stores pointers as "(disk page number, byte offset)" pairs; with
fixed-width records a list-local entry index is the same information, so the
higher layers address records by ``(page_id, slot)`` computed from indexes.

A :class:`Pager` may be backed by a real file on disk or kept purely in
memory; the byte layout is identical, and the in-memory variant keeps unit
tests fast while the benchmarks use real temp files.
"""

from __future__ import annotations

import io
import os
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import PagerError, StoreCorrupt
from repro.resilience import faults
from repro.resilience.guard import page_checksum

DEFAULT_PAGE_SIZE = 4096


@dataclass
class IOStats:
    """Counters for the I/O behaviour of one run.

    ``read_seconds``/``write_seconds`` accumulate wall-clock time spent in
    the backing store's read/write calls — the quantity the paper reports
    parenthesized as "I/O time" in Table V and as the I/O share of Fig. 7.
    """

    logical_reads: int = 0
    physical_reads: int = 0
    pages_written: int = 0
    read_seconds: float = 0.0
    write_seconds: float = 0.0

    def reset(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0
        self.pages_written = 0
        self.read_seconds = 0.0
        self.write_seconds = 0.0

    def merge(self, other: "IOStats") -> None:
        self.logical_reads += other.logical_reads
        self.physical_reads += other.physical_reads
        self.pages_written += other.pages_written
        self.read_seconds += other.read_seconds
        self.write_seconds += other.write_seconds

    @property
    def io_seconds(self) -> float:
        return self.read_seconds + self.write_seconds

    def as_dict(self) -> dict[str, float]:
        return {
            "logical_reads": self.logical_reads,
            "physical_reads": self.physical_reads,
            "pages_written": self.pages_written,
            "io_ms": round(self.io_seconds * 1e3, 3),
        }


class PageFile:
    """A flat array of fixed-size pages, file-backed or in-memory.

    Args:
        path: backing file path; None keeps all pages in memory.
        page_size: bytes per page.
    """

    def __init__(self, path: str | os.PathLike[str] | None = None,
                 page_size: int = DEFAULT_PAGE_SIZE, create: bool = True):
        if page_size <= 0:
            raise PagerError(f"page size must be positive, got {page_size}")
        self.page_size = page_size
        self.path = os.fspath(path) if path is not None else None
        if self.path is None:
            self._file: io.BufferedRandom | io.BytesIO = io.BytesIO()
            self._num_pages = 0
        elif create:
            self._file = open(self.path, "w+b")
            self._num_pages = 0
        else:
            # Re-open an existing page file (persistence load path).
            self._file = open(self.path, "r+b")
            size = os.path.getsize(self.path)
            if size % page_size:
                raise PagerError(
                    f"page file {self.path!r} size {size} is not a multiple"
                    f" of the page size {page_size}"
                )
            self._num_pages = size // page_size
        self.stats = IOStats()
        #: page id -> CRC32 expected on physical read.  Populated when a
        #: checksummed store is attached (``load_catalog``); empty for
        #: in-memory materializations, where verification is skipped —
        #: one failed dict lookup per read, measurably free.
        self.expected_crc: dict[int, int] = {}

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def size_bytes(self) -> int:
        """Total size of the file in bytes (pages * page size)."""
        return self._num_pages * self.page_size

    def allocate(self) -> int:
        """Allocate a fresh zeroed page; returns its page id."""
        page_id = self._num_pages
        self._num_pages += 1
        self._file.seek(page_id * self.page_size)
        self._file.write(b"\x00" * self.page_size)
        return page_id

    def write_page(self, page_id: int, data: bytes) -> None:
        """Overwrite a page; ``data`` must not exceed the page size."""
        self._check(page_id)
        if len(data) > self.page_size:
            raise PagerError(
                f"page payload of {len(data)} bytes exceeds page size"
                f" {self.page_size}"
            )
        if len(data) < self.page_size:
            data = data + b"\x00" * (self.page_size - len(data))
        begin = time.perf_counter()
        self._file.seek(page_id * self.page_size)
        self._file.write(data)
        self.stats.write_seconds += time.perf_counter() - begin
        self.stats.pages_written += 1
        # The recorded checksum no longer matches; the next commit
        # recomputes the map from the bytes actually on disk.
        self.expected_crc.pop(page_id, None)

    def read_page(self, page_id: int) -> bytes:
        """Read a page directly from the backing store (bypasses the pool).

        When the page has a recorded checksum (checksummed store
        attachments), the payload is verified here — at the physical
        read, the single funnel every cursor's bytes pass through — so
        at-rest corruption surfaces as a typed
        :class:`~repro.errors.StoreCorrupt` on the page actually
        touched, never as silently wrong match keys.
        """
        self._check(page_id)
        begin = time.perf_counter()
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        self.stats.read_seconds += time.perf_counter() - begin
        self.stats.physical_reads += 1
        state = faults.STATE
        if state is not None:
            data = state.page_read(page_id, data)
        expected = self.expected_crc.get(page_id)
        if expected is not None and page_checksum(data) != expected:
            raise StoreCorrupt(
                f"page {page_id} of {self.path or '<memory>'} failed its"
                f" checksum (expected {expected})",
                pages=(page_id,),
            )
        return data

    def read_page_raw(self, page_id: int) -> bytes:
        """Read a page without touching the I/O statistics.

        Used for work that is not part of any measured evaluation: decoding
        a list's pages into its columns when it is attached, and the
        maintenance relabel of a slotted list's pages.
        """
        self._check(page_id)
        self._file.seek(page_id * self.page_size)
        return self._file.read(self.page_size)

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < self._num_pages:
            raise PagerError(
                f"page id {page_id} out of range [0, {self._num_pages})"
            )

    def flush(self) -> None:
        """Push buffered writes to the backing store (fsync when file-backed).

        Maintenance commits call this before replacing the store manifest so
        the manifest never points at pages the OS has not yet persisted."""
        self._file.flush()
        if self.path is not None:
            os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: Residency marker for pages a list touched: the page is resident (it
#: occupies a pool slot and ages through the LRU like any other) but has
#: no decoded payload.  A decoder id belongs to one reader, and a reader
#: either touches or gets, so :meth:`BufferPool.get` never finds one.
_TOUCHED = object()


class BufferPool:
    """LRU page cache over a :class:`PageFile`.

    :meth:`get` caches *decoded* page payloads supplied by the caller's
    decode function, so unpacking happens at most once per residency (the
    B+-tree's nodes are read this way).

    :meth:`touch` is the accounting mirror every list read uses: it
    performs the exact same logical/physical-read bookkeeping and LRU
    state transitions as :meth:`get` without decoding the page, so a run
    that reads record fields from packed columns reports byte-identical
    I/O statistics to one that reads through the pool.
    """

    def __init__(self, page_file: PageFile, capacity: int = 64):
        if capacity <= 0:
            raise PagerError(f"buffer pool capacity must be positive")
        self.page_file = page_file
        self.capacity = capacity
        self.stats = IOStats()
        self._pages: OrderedDict[tuple[int, int], object] = OrderedDict()
        # Most-recently-used key; lets repeated accesses to the same page
        # (the common case for sequential cursors) skip the LRU reordering.
        self._mru: tuple[int, int] | None = None

    def get(self, page_id: int, decoder_id: int, decode) -> object:
        """Fetch a decoded page, loading and decoding on a miss.

        Args:
            page_id: page to fetch.
            decoder_id: distinguishes decodings of the same page (lists with
                different record layouts never share pages in practice, but
                the key keeps the pool safe regardless).
            decode: callable mapping raw page bytes to the decoded payload.
        """
        key = (page_id, decoder_id)
        self.stats.logical_reads += 1
        cached = self._pages.get(key)
        if cached is not None:
            if key != self._mru:
                self._pages.move_to_end(key)
                self._mru = key
            return cached
        raw = self.page_file.read_page(page_id)
        self.stats.physical_reads += 1
        decoded = decode(raw)
        self._pages[key] = decoded
        self._mru = key
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
        return decoded

    def touch(self, page_id: int, decoder_id: int) -> None:
        """Account one record access without decoding the page.

        Mirrors :meth:`get` exactly: one logical read per call, a physical
        read (including the backing-store transfer, so I/O seconds stay
        honest for file-backed pagers) whenever the page is not resident,
        and the same LRU recency/eviction transitions.
        """
        self.stats.logical_reads += 1
        key = (page_id, decoder_id)
        if key == self._mru:
            return
        pages = self._pages
        if key in pages:
            pages.move_to_end(key)
            self._mru = key
            return
        self.page_file.read_page(page_id)
        self.stats.physical_reads += 1
        pages[key] = _TOUCHED
        self._mru = key
        if len(pages) > self.capacity:
            pages.popitem(last=False)

    def touch_run(self, page_id: int, decoder_id: int, count: int) -> None:
        """Account ``count`` consecutive record accesses on one page.

        Exactly equivalent to ``count`` :meth:`touch` calls on the same
        key: after the first call the key is the MRU and every repeat
        short-circuits, so a run costs ``count`` logical reads and at
        most one residency transition.  The skip kernels use this to
        account a bisected jump without looping per entry.
        """
        if count <= 0:
            return
        self.stats.logical_reads += count
        key = (page_id, decoder_id)
        if key == self._mru:
            return
        pages = self._pages
        if key in pages:
            pages.move_to_end(key)
            self._mru = key
            return
        self.page_file.read_page(page_id)
        self.stats.physical_reads += 1
        pages[key] = _TOUCHED
        self._mru = key
        if len(pages) > self.capacity:
            pages.popitem(last=False)

    def clear(self) -> None:
        """Drop all cached pages (keeps stats)."""
        self._pages.clear()
        self._mru = None

    def reset_stats(self) -> None:
        self.stats.reset()


class Pager:
    """Owner of one page file plus its buffer pool.

    Convenience facade used by the storage schemes; also manages temp-file
    lifecycle when no explicit path is given but file backing is requested.
    """

    def __init__(
        self,
        path: str | os.PathLike[str] | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        pool_capacity: int = 64,
        file_backed: bool = False,
        create: bool = True,
    ):
        self._temp_path: str | None = None
        if path is None and file_backed:
            handle, self._temp_path = tempfile.mkstemp(
                prefix="repro-view-", suffix=".pages"
            )
            os.close(handle)
            path = self._temp_path
        self.page_file = PageFile(path, page_size, create=create)
        self.pool = BufferPool(self.page_file, pool_capacity)

    @property
    def page_size(self) -> int:
        return self.page_file.page_size

    @property
    def stats(self) -> IOStats:
        """Pool-level stats (logical/physical reads); writes live on the file."""
        return self.pool.stats

    def total_stats(self) -> IOStats:
        """Combined pool and file counters."""
        combined = IOStats()
        combined.logical_reads = self.pool.stats.logical_reads
        combined.physical_reads = self.pool.stats.physical_reads
        combined.pages_written = self.page_file.stats.pages_written
        combined.read_seconds = self.page_file.stats.read_seconds
        combined.write_seconds = self.page_file.stats.write_seconds
        return combined

    def reset_stats(self) -> None:
        self.pool.reset_stats()
        self.page_file.stats.reset()

    def flush(self) -> None:
        self.page_file.flush()

    def close(self) -> None:
        self.page_file.close()
        if self._temp_path is not None and os.path.exists(self._temp_path):
            os.unlink(self._temp_path)
            self._temp_path = None

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
