"""Result caching keyed by the canonical form of a query.

Serving workloads repeat themselves: the same dashboards re-issue the same
outlier queries, and ad-hoc users re-run a query while tweaking one clause.
The :class:`ResultCache` memoizes whole
:class:`~repro.core.results.OutlierResult` objects under a *canonicalized*
query key, so textual variation that cannot change the answer — whitespace,
clause layout, keyword case — still hits.

Canonicalization is the shared :func:`repro.service.keys.canonical_query_key`
(re-exported here for compatibility): the query language round-trip
(:func:`~repro.query.parser.parse_query` →
:func:`~repro.query.formatter.format_query`), the same normal form the
formatter's property tests guarantee re-parses identically.

Entries carry the engine's network **version**; a lookup against a newer
version drops the entry (explicit invalidation also exists for operators).
A TTL bounds staleness against out-of-band changes; both mechanisms expose
counters so the stats endpoint can show hit/miss/shed behavior live.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.core.results import OutlierResult
from repro.exceptions import ServiceError
from repro.service.keys import canonical_query_key

__all__ = ["ResultCache", "canonical_query_key"]


@dataclass
class _Entry:
    result: OutlierResult
    version: int
    expires_at: float | None


class ResultCache:
    """Thread-safe LRU of query results with TTL and version invalidation.

    Parameters
    ----------
    max_entries:
        Capacity; least-recently-used entries evict first.  ``0`` creates a
        disabled cache (every get misses, every put is dropped) so callers
        need no special-casing.
    ttl_seconds:
        Entry lifetime from insertion (``None`` = no time-based expiry).
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        max_entries: int = 1024,
        ttl_seconds: float | None = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 0:
            raise ServiceError(f"max_entries must be >= 0, got {max_entries}")
        if ttl_seconds is not None and ttl_seconds < 0:
            raise ServiceError(f"ttl_seconds must be >= 0, got {ttl_seconds}")
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, key: str, *, version: int) -> OutlierResult | None:
        """The cached result for ``key`` at ``version``, or ``None``.

        A hit requires the entry to be unexpired *and* recorded at the
        caller's network version; failing either drops the entry (counted
        separately as expiration vs invalidation) and reports a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.version != version:
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            if entry.expires_at is not None and self._clock() >= entry.expires_at:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.result

    def put(self, key: str, result: OutlierResult, *, version: int) -> None:
        """Insert ``result`` under ``key``, stamped with ``version``.

        Degraded results are cacheable on purpose — they are valid answers
        produced under pressure — but carry their flags with them, so a
        cache hit reports the degradation exactly as the original did.
        """
        if not self.enabled:
            return
        expires_at = (
            self._clock() + self.ttl_seconds
            if self.ttl_seconds is not None
            else None
        )
        with self._lock:
            self._entries[key] = _Entry(result, version, expires_at)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    # ------------------------------------------------------------------
    # Invalidation / introspection
    # ------------------------------------------------------------------
    def invalidate(self) -> int:
        """Drop every entry (operator-initiated); returns how many."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Point-in-time counters for the stats endpoint."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "enabled": self.enabled,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "ttl_seconds": self.ttl_seconds,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
            }
