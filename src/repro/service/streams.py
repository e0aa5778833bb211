"""Memoized sub-plan streams: the shared executor's stream cache.

A :class:`StreamCache` keeps the :class:`~repro.service.jobs.JobResult`
of recently executed eval nodes so later batches can replay a node's
match stream (and its recorded, deterministic accounting) without
touching the view store at all.

Keys are ``((maintenance_epoch, planner_generation), node_digest)`` —
the epoch pair changes on every catalog/plan mutation (view
registration, adoption, quarantine, maintenance commit), so a stale
stream can never match a post-update batch's key.  Since the MVCC work
(DESIGN.md §16) the epoch pair is per *generation*: a maintenance
commit rolls the key instead of purging, so readers pinned to an older
generation keep replaying their streams; entries of GC-reaped
generations are dropped via :meth:`StreamCache.evict`.  View-set
mutations inside a generation (register, adoption, quarantine) still
clear the cache outright through ``invalidate_results``.

Spill buffer
------------
Large match streams are not kept as Python lists: from
:data:`SPILL_THRESHOLD` keys on, the stream becomes a match-key list
(:class:`~repro.storage.records.MatchKeyCodec`: one ``u32`` column per
key slot, paged row-per-key) on the cache's **own** pager, handed its
columns whole.  Rehydration is an accounted scan of that list (the key
columns zipped back into rows), so every replayed key is accounted as a
logical (and, on a cold pool, physical) read in :attr:`io` — the
cache's I/O is observable, never hidden, and never mixed into query
outcomes (those replay the original run's recorded I/O).  The cache is
bounded twice: entry count (LRU) and total spilled/resident bytes
(:data:`BYTE_BUDGET`).  Page space
of evicted entries is reclaimed wholesale when the cache is cleared
(every catalog mutation), and by compaction in between: once the pages
of evicted entries outnumber those of live ones, the live streams are
copied to a fresh pager and the old one is dropped, so a read-only
service's spill file stays within twice its live streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.caching import CacheStats, LRUCache
from repro.service.jobs import JobResult
from repro.storage.lists import StoredList
from repro.storage.pager import IOStats, Pager
from repro.storage.records import MatchKeyCodec

#: Max total bytes across cached streams (LRU-evicted past it).
BYTE_BUDGET = 32 << 20
#: Streams with at least this many match keys are spilled to pager pages
#: instead of held as Python lists.
SPILL_THRESHOLD = 256


@dataclass
class _StreamEntry:
    """One cached node stream: the result shell plus its key storage."""

    result: JobResult
    stored: StoredList | None
    weight: int


class StreamCache:
    """Bounded, I/O-accounted cache of eval-node match streams.

    Args:
        capacity: max cached nodes; ``<= 0`` disables the cache.
    """

    def __init__(self, capacity: int):
        self._cache = LRUCache(capacity, weight_budget=BYTE_BUDGET)
        self._pager: Pager | None = Pager() if capacity > 0 else None
        self._retired_io = IOStats()
        self._spill_serial = 0
        self.spilled_streams = 0
        self.spilled_bytes = 0

    @property
    def capacity(self) -> int:
        return self._cache.capacity

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def io(self) -> IOStats:
        """Spill-buffer I/O (reads replayed streams cost; writes to pack).

        Cumulative across :meth:`clear` — operators see totals, not the
        current epoch's slice.
        """
        combined = IOStats()
        combined.merge(self._retired_io)
        if self._pager is not None:
            combined.merge(self._pager.total_stats())
        return combined

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, key) -> JobResult | None:
        """Replay a cached node stream, rehydrating spilled keys through
        the spill pager's buffer pool (accounted in :attr:`io`)."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        if entry.stored is not None:
            entry.stored.touch_all()
            keys = list(zip(*entry.stored.columns.fields))
        else:
            keys = list(entry.result.match_keys)
        return replace(entry.result, match_keys=keys)

    def put(self, key, result: JobResult) -> None:
        if self._cache.capacity <= 0:
            return
        keys = result.match_keys
        stored = None
        if len(keys) >= SPILL_THRESHOLD and self._pager is not None:
            codec = MatchKeyCodec(len(keys[0]))
            stored = self._pack(
                codec, codec.make_columns().extend_fields(*zip(*keys))
            )
            weight = stored.size_bytes
            self.spilled_streams += 1
            self.spilled_bytes += weight
            result = replace(result, match_keys=[])
        else:
            arity = len(keys[0]) if keys else 1
            weight = len(keys) * arity * 4
        self._cache.put(key, _StreamEntry(result, stored, weight),
                        weight=weight)
        self._compact()

    def _pack(self, codec: MatchKeyCodec, columns) -> StoredList:
        self._spill_serial += 1
        return StoredList.from_columns(
            self._pager, codec, columns, name=f"stream:{self._spill_serial}"
        )

    def evict(self, predicate) -> int:
        """Drop entries whose *key* matches ``predicate`` (GC of reaped
        generations).  Their bytes leave the weight budget immediately;
        their spill pages go with the next compaction or
        :meth:`clear`."""
        dropped = self._cache.invalidate(predicate)
        self._compact()
        return dropped

    def _compact(self) -> None:
        """Copy the live spilled streams to a fresh pager once the pages
        of evicted entries outnumber theirs.  The copy is a move, not a
        spill: its reads and writes are accounted in :attr:`io`, but
        ``spilled_streams`` / ``spilled_bytes`` count each stream once."""
        old = self._pager
        if old is None or not old.page_file.num_pages:
            return
        live = [
            entry for entry in self._cache.values()
            if entry.stored is not None
        ]
        live_pages = sum(entry.stored.num_pages for entry in live)
        if old.page_file.num_pages - live_pages <= live_pages:
            return
        self._pager = Pager()
        for entry in live:
            entry.stored.touch_all()  # the copy reads every key once
            entry.stored = self._pack(entry.stored.codec, entry.stored.columns)
        self._retire(old)

    def _retire(self, pager: Pager) -> None:
        self._retired_io.merge(pager.total_stats())
        pager.close()

    def clear(self) -> int:
        """Drop every stream and reclaim the spill pages; returns how
        many entries were dropped."""
        dropped = self._cache.invalidate()
        if self._pager is not None and self._pager.page_file.num_pages:
            self._retire(self._pager)
            self._pager = Pager()
        return dropped

    def close(self) -> None:
        if self._pager is not None:
            self._pager.close()
            self._pager = None
