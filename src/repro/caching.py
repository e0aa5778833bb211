"""Small LRU cache with observable statistics.

Shared by the planner's plan cache and the query service's result cache
(:mod:`repro.service`).  The point of rolling our own instead of using
``functools.lru_cache`` is explicit invalidation (both caches must be
dropped when the catalog generation changes) and inspectable counters —
the acceptance tests pin cache behaviour on the stats, not on timing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache (monotone per instance)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """Bounded mapping with least-recently-used replacement.

    ``capacity <= 0`` disables storage entirely (every lookup is a miss);
    that lets callers keep one code path whether or not caching is on.

    An optional ``weight_budget`` adds a second bound: each entry may carry
    a non-negative weight (bytes, typically) and the cache evicts from the
    LRU end while the total weight exceeds the budget.  Entries heavier
    than the whole budget are refused outright — admitting one would purge
    everything else for a single-use resident.
    """

    def __init__(self, capacity: int, weight_budget: int = 0):
        self.capacity = capacity
        self.weight_budget = weight_budget
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._weights: dict[Hashable, int] = {}
        self._total_weight = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def total_weight(self) -> int:
        return self._total_weight

    def values(self):
        """The cached values, least recently used first (no hit counted)."""
        return self._entries.values()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any, weight: int = 0) -> None:
        """Insert ``key``, evicting the least-recently-used entry if full."""
        if self.capacity <= 0:
            return
        budget = self.weight_budget
        if budget and weight > budget:
            return
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self._total_weight -= self._weights.pop(key, 0)
        entries[key] = value
        self._weights[key] = weight
        self._total_weight += weight
        while len(entries) > self.capacity or (
            budget and self._total_weight > budget and len(entries) > 1
        ):
            doomed, _ = entries.popitem(last=False)
            self._total_weight -= self._weights.pop(doomed, 0)
            self.stats.evictions += 1

    def invalidate(self, predicate=None) -> int:
        """Drop entries and return how many were dropped.

        With no ``predicate`` every entry goes; otherwise only keys for
        which ``predicate(key)`` is true.  Each dropped entry counts as
        an eviction (they left before being naturally replaced) and the
        call counts as one invalidation, so cache-health dashboards can
        distinguish capacity pressure from explicit maintenance drops by
        comparing the two counters.
        """
        entries = self._entries
        if predicate is None:
            dropped = len(entries)
            entries.clear()
            self._weights.clear()
            self._total_weight = 0
        else:
            doomed = [key for key in entries if predicate(key)]
            for key in doomed:
                del entries[key]
                self._total_weight -= self._weights.pop(key, 0)
            dropped = len(doomed)
        self.stats.evictions += dropped
        self.stats.invalidations += 1
        return dropped

    def clear(self) -> None:
        """Drop every entry (stats survive; counts one invalidation)."""
        self.invalidate()
