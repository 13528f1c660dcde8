"""Thread-safe LRU cache, bounded by entry count.

The service keeps two of these: the request-level result cache (request key
-> encoded payload bytes) and the pool of materialized score stores (one
per (dataset, function) content fingerprint pair).

``get_or_compute`` is single-flight: when several threads request the same
missing key concurrently (the batch executor does exactly this), only one
runs the producer; the others block until the value lands and then read it
as a hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Tuple, TypeVar

__all__ = ["CacheStats", "LRUCache"]

T = TypeVar("T")


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of cache effectiveness counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "hit_rate": round(self.hit_rate, 4),
        }

    def describe(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.entries} entries, "
            f"{self.evictions} evictions"
        )


_ABSENT = object()


class LRUCache:
    """A thread-safe least-recently-used cache holding ``capacity`` entries."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.RLock()
        self._inflight: Dict[str, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- primitive operations -------------------------------------------------

    def get(self, key: str, default: object = None) -> object:
        """Return the cached value for ``key`` (counting a hit or a miss)."""
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def put(self, key: str, value: object) -> None:
        """Insert (or refresh) an entry and evict LRU entries over capacity."""
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics counters are kept)."""
        with self._lock:
            self._entries.clear()

    def values(self) -> Tuple[object, ...]:
        """Snapshot of the cached values, least recently used first."""
        with self._lock:
            return tuple(self._entries.values())

    def items(self) -> Tuple[Tuple[str, object], ...]:
        """Snapshot of ``(key, value)`` pairs, least recently used first.

        Re-inserting the pairs in this order into an empty cache (the
        warm-start reload path) reproduces the recency order exactly.
        """
        with self._lock:
            return tuple(self._entries.items())

    # -- memoisation ----------------------------------------------------------

    def get_or_compute(self, key: str, producer: Callable[[], T]) -> Tuple[T, bool]:
        """Return ``(value, was_hit)``, computing and caching on a miss.

        Concurrent callers for the same missing key are deduplicated: one
        thread runs ``producer`` while the rest wait and then read the cached
        value.  If the producer raises, waiters retry the computation.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key, _ABSENT)
                if entry is not _ABSENT:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry, True  # type: ignore[return-value]
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    self._misses += 1
                    break
            # Another thread is computing this key: wait, then loop to re-read.
            event.wait()
        try:
            value = producer()
        except BaseException:
            self._release_inflight(key)
            raise
        # Publish before releasing waiters so they observe the value as a hit.
        self.put(key, value)
        self._release_inflight(key)
        return value, False

    def _release_inflight(self, key: str) -> None:
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    # -- introspection --------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LRUCache(capacity={self.capacity}, {self.stats.describe()})"
