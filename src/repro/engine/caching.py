"""Cross-query caching: neighbor-vector rows and shared sub-path products.

Real workloads (the paper's Table 4 query sets included) touch the same hub
vertices over and over: every coauthor query against a community re-reads
the same prolific authors' vectors.  :class:`CachingStrategy` wraps any
materialization strategy with a bounded LRU cache of ``(meta-path, vertex)``
rows, turning that repetition into hits.  A row is stored as a private
``(indices, data)`` array pair and a block of rows is assembled in one pass
(one ``cumsum``, two ``concatenate``, one CSR construction), so the cache's
own bookkeeping stays far below the products and traversals it saves.

This composes with the paper's indexes rather than replacing them: a cached
Baseline avoids repeated traversals, a cached SPM avoids repeated traversal
*misses*, and a cached PM keeps the rows of paths longer than its index
reaches.  Where the inner strategy already answers a path by one gather
(PM up to length 2 — the whole point of §6.2), the cache steps aside and
the request goes straight to that lookup.  The ``ablation_row_cache``
benchmark quantifies each pairing.

:class:`SubpathCache` caches one level lower, following Atrapos' observation
that concurrent meta-path workloads are dominated by *overlapping
sub-paths*: a byte-bounded LRU of full length-2 segment count matrices
(``A₁ @ A₂``), keyed by ``(segment, network version)``.  The materialization
routine consults it for every segment the index holds no full matrix of
(all of them under Baseline, the uncovered ones under SPM), so two
concurrent queries whose meta-paths share a segment — ``a.p.v`` inside both
``a.p.v`` and ``a.p.v.p.a`` — compute the segment product once.  Because
path counts are non-negative integers far below 2⁵³, float64 sparse
products are exact and associative: multiplying a selection block by a
cached segment matrix is byte-identical to chaining the two hops.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
from scipy import sparse

from repro import faultinject
from repro.engine.strategies import MaterializationStrategy
from repro.exceptions import ExecutionError, TransientFaultError
from repro.metapath.metapath import MetaPath
from repro.utils.sparsetools import csr_storage_bytes, sparse_row_bytes

__all__ = ["CachingStrategy", "SubpathCache"]


class SubpathCache:
    """Byte-bounded LRU of full length-2 segment products, shared by queries.

    Parameters
    ----------
    max_bytes:
        Total CSR storage budget (under the repo's conventional accounting
        model); least-recently-used segments evict first.  An entry larger
        than the whole budget is rejected outright (counted, never stored).

    Notes
    -----
    Keys are ``(segment, network version)``: :meth:`get`/:meth:`put` carry
    the caller's version, and any entry stored at a different version is
    dropped wholesale — the same invalidation contract the result cache
    and row cache follow, which is what makes the adaptive hot-swap (a
    version bump with unchanged graph data) safe here too.

    Thread-safe (one ``RLock`` guards the LRU and its counters); in the
    process backend every worker holds its own instance over the same
    read-only shared adjacency, which is correct because entries are pure
    functions of (segment, version).

    Fault points: ``subpath.get`` and ``subpath.put`` are **self-healing**
    like ``cache_read`` — a faulted read drops the suspect entry and
    reports a miss, a faulted write skips the insert.  A cache must never
    make a query fail, so the Baseline rung stays the degradation ladder's
    infallible floor even with this cache attached.
    """

    def __init__(self, *, max_bytes: int) -> None:
        if max_bytes < 1:
            raise ExecutionError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        self._entries: OrderedDict[MetaPath, tuple[int, sparse.csr_matrix]] = (
            OrderedDict()
        )
        self._bytes = 0
        self._version: int | None = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Entries refused because one segment product exceeds the budget.
        self.rejected = 0
        #: Reads dropped / writes skipped by (injected or real) faults.
        self.faulted_gets = 0
        self.faulted_puts = 0

    def _sync_version_locked(self, version: int) -> None:
        if self._version != version:
            self._entries.clear()
            self._bytes = 0
            self._version = version

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, segment: MetaPath, version: int) -> sparse.csr_matrix | None:
        """The cached product of ``segment`` at ``version``, or ``None``."""
        with self._lock:
            self._sync_version_locked(version)
            entry = self._entries.get(segment)
            if entry is not None:
                try:
                    faultinject.check("subpath.get")
                except TransientFaultError:
                    # Self-healing: drop the suspect entry and recompute —
                    # a miss, never an error.
                    self._entries.pop(segment, None)
                    self._bytes -= entry[0]
                    self.faulted_gets += 1
                else:
                    self._entries.move_to_end(segment)
                    self.hits += 1
                    return entry[1]
            self.misses += 1
            return None

    def put(
        self, segment: MetaPath, version: int, matrix: sparse.csr_matrix
    ) -> None:
        """Insert the product of ``segment`` computed at ``version``."""
        size = csr_storage_bytes(matrix)
        with self._lock:
            self._sync_version_locked(version)
            try:
                faultinject.check("subpath.put")
            except TransientFaultError:
                self.faulted_puts += 1
                return
            if size > self.max_bytes:
                self.rejected += 1
                return
            old = self._entries.pop(segment, None)
            if old is not None:
                self._bytes -= old[0]
            self._entries[segment] = (size, matrix)
            self._bytes += size
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                _, (evicted_bytes, _evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted_bytes
                self.evictions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Internally consistent stats snapshot under one lock hold."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "evictions": self.evictions,
                "rejected": self.rejected,
                "faulted_gets": self.faulted_gets,
                "faulted_puts": self.faulted_puts,
            }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.rejected = 0
            self.faulted_gets = 0
            self.faulted_puts = 0


class CachingStrategy(MaterializationStrategy):
    """LRU row cache in front of another strategy.

    Parameters
    ----------
    inner:
        The strategy that actually materializes vectors on a miss.
    max_rows:
        Cache capacity in rows; least-recently-used rows evict first.

    Notes
    -----
    A cached row is a private ``(indices, data)`` pair of 1-D arrays copied
    out of the miss block's CSR buffers (so a row never pins its source
    block), and a block is answered in **one** pass in request order: one
    ``cumsum`` for ``indptr``, one ``np.concatenate`` each for ``indices``
    and ``data`` over hit rows and fresh miss rows, one ``csr_matrix``.
    Every returned matrix owns its arrays — writing to a result can never
    change what a later request reads.  ``neighbor_row`` is the inherited
    one-row block, so hit/miss/fault/eviction logic exists once.

    Paths the inner strategy already answers by a single gather
    (:meth:`~MaterializationStrategy.answers_by_lookup` — PM up to length
    2) bypass the cache entirely: they go straight to the inner strategy
    (rows and supports alike) and touch neither the rows nor the counters.

    :meth:`visibilities` keeps ``‖φ_path(v)‖²`` — a scalar no query changes
    — in one array per path under the same lock and version check, so
    scoring Equation 1 by sums stores 8 bytes per candidate, not a row.

    The cache delegates statistics to the inner strategy only on misses, so
    per-phase accounting stays truthful: a hit costs (and records) nothing.

    The cache is thread-safe: an ``RLock`` guards every read and write of
    the LRU ``OrderedDict``, its byte total and its counters, so one
    instance can sit in front of a shared index inside
    :class:`~repro.service.QueryService`'s worker pool.  Per block, one lock
    acquisition gathers every cached row, all misses compute **outside**
    the lock in a single bulk ``inner.neighbor_matrix`` call — concurrent
    misses never serialize on each other, at worst both compute the same
    row and the second insert wins — and one more acquisition inserts the
    new rows.
    """

    def __init__(self, inner: MaterializationStrategy, *, max_rows: int = 4096) -> None:
        super().__init__(inner.network)
        if max_rows < 1:
            raise ExecutionError(f"max_rows must be >= 1, got {max_rows}")
        self.inner = inner
        self.max_rows = max_rows
        self.name = f"cached-{inner.name}"
        self.can_propagate = inner.can_propagate
        self._rows: OrderedDict[
            tuple[MetaPath, int], tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()
        #: Running ``sparse_row_bytes`` total of ``_rows`` (kept on insert,
        #: evict, flush and clear so ``/stats`` never walks the cache).
        self._row_bytes = 0
        self._lock = threading.RLock()
        #: ``‖φ_path(v)‖²``: one float64 array per path over its source type,
        #: NaN where unknown — all Equation 1 needs of a candidate's row.
        self._visibilities: dict[MetaPath, np.ndarray] = {}
        self._cached_version = inner.network.version
        self.hits = 0
        self.misses = 0
        self.visibility_hits = 0
        self.visibility_misses = 0
        #: Cache reads dropped due to (injected or real) transient faults.
        self.faulted_reads = 0

    def _drop_locked(self, key: tuple[MetaPath, int]) -> None:
        row = self._rows.pop(key, None)
        if row is not None:
            self._row_bytes -= sparse_row_bytes(len(row[0]))

    def _sync_version_locked(self) -> None:
        # Mutations invalidate everything cached: serving pre-mutation
        # values silently would desynchronize results from the live data.
        if self.network.version != self._cached_version:
            self._rows.clear()
            self._row_bytes = 0
            self._visibilities.clear()
            self._cached_version = self.network.version

    # ------------------------------------------------------------------
    # MaterializationStrategy interface
    # ------------------------------------------------------------------
    def neighbor_matrix(self, path, vertex_indices, stats=None) -> sparse.csr_matrix:
        if self.inner.answers_by_lookup(path):
            return self.inner.neighbor_matrix(path, vertex_indices, stats)
        return super().neighbor_matrix(path, vertex_indices, stats)

    def neighbor_support(self, path, vertex_index, stats=None) -> np.ndarray:
        if self.inner.answers_by_lookup(path):
            return self.inner.neighbor_support(path, vertex_index, stats)
        return super().neighbor_support(path, vertex_index, stats)

    def _materialize_block(self, path, vertex_indices, stats) -> sparse.csr_matrix:
        """One block in request order: gather hits, bulk-compute misses.

        One lock acquisition looks every row up (and runs a single
        per-block ``cache_read`` fault check); the misses materialize
        **outside** the lock with one bulk ``inner.neighbor_matrix`` call;
        a second single lock acquisition inserts every new row.  Hits cost
        (and record) nothing.
        """
        keys = [(path, index) for index in vertex_indices.tolist()]
        with self._lock:
            self._sync_version_locked()
            rows = [self._rows.get(key) for key in keys]
            hit_keys = [key for key, row in zip(keys, rows) if row is not None]
            if hit_keys:
                try:
                    # One fault check per block (not per row): a transient
                    # cache fault drops the whole block's hits and recomputes
                    # them as misses — self-healing, never an error, because
                    # a cache must never make a query fail.
                    faultinject.check("cache_read")
                except TransientFaultError:
                    for key in hit_keys:
                        self._drop_locked(key)
                    self.faulted_reads += len(hit_keys)
                    rows = [None] * len(keys)
                else:
                    for key in hit_keys:
                        self._rows.move_to_end(key)
                    self.hits += len(hit_keys)
        miss_positions = [
            position for position, row in enumerate(rows) if row is None
        ]
        if miss_positions:
            # Bulk miss computation outside the lock: concurrent blocks
            # never serialize on each other; duplicated work is bounded by
            # one block and the last insert wins.
            block = self.inner.neighbor_matrix(
                path, vertex_indices[miss_positions], stats
            )
            bounds, indices, data = block.indptr.tolist(), block.indices, block.data
            for position, start, stop in zip(miss_positions, bounds, bounds[1:]):
                # Copies, so a cached row never pins its source block.
                rows[position] = (indices[start:stop].copy(), data[start:stop].copy())
            with self._lock:
                self.misses += len(miss_positions)
                for position in miss_positions:
                    self._drop_locked(keys[position])
                    self._rows[keys[position]] = rows[position]
                    self._row_bytes += sparse_row_bytes(len(rows[position][0]))
                while len(self._rows) > self.max_rows:
                    _, (evicted, _data) = self._rows.popitem(last=False)
                    self._row_bytes -= sparse_row_bytes(len(evicted))
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(indices) for indices, _ in rows], out=indptr[1:])
        return sparse.csr_matrix(
            (
                np.concatenate([data for _, data in rows]),
                np.concatenate([indices for indices, _ in rows]),
                indptr,
            ),
            shape=(len(rows), self.network.num_vertices(path.target)),
        )

    def connectivity_sums(self, path, candidates, reference, stats=None) -> np.ndarray:
        return self.inner.connectivity_sums(path, candidates, reference, stats)

    rung = property(lambda self: self.inner.rung)
    degradation_reason = property(lambda self: self.inner.degradation_reason)

    def visibilities(self, path, vertex_indices, stats=None) -> np.ndarray:
        """Cached ``‖φ_path(v)‖²``.  Unknown ones go to ``inner`` directly — its
        every check, index and fault point as on any row request — and store
        no row; a faulted read forgets the values it would have returned."""
        indices = self._checked_indices(path, vertex_indices)
        with self._lock:
            self._sync_version_locked()
            known = self._visibilities.get(path)
            if known is None:
                path.validate(self.network.schema)  # no store for an illegal path
                known = np.full(self.network.num_vertices(path.source), np.nan)
                self._visibilities[path] = known
            values = known[indices]
            hits = indices[~np.isnan(values)]
            if hits.size:
                try:
                    faultinject.check("cache_read")
                except TransientFaultError:
                    known[hits] = values[:] = np.nan
                    self.faulted_reads += len(hits)
                else:
                    self.visibility_hits += len(hits)
        missing = np.isnan(values)
        if missing.any():
            wanted = np.unique(indices[missing])
            computed = self.inner.visibilities(path, wanted, stats)
            values[missing] = computed[np.searchsorted(wanted, indices[missing])]
            with self._lock:
                self.visibility_misses += int(missing.sum())
                # After a version change ``known`` is an orphan nobody reads.
                known[wanted] = computed
        return values

    def index_size_bytes(self) -> int:
        """Inner index bytes plus the cache's row and visibility storage."""
        with self._lock:
            return (
                self.inner.index_size_bytes()
                + self._row_bytes
                + sum(known.nbytes for known in self._visibilities.values())
            )

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------
    @property
    def cached_rows(self) -> int:
        with self._lock:
            return len(self._rows)

    @property
    def hit_rate(self) -> float:
        """Fraction of row requests served from the cache (0 when unused)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Internally consistent stats snapshot under **one** lock hold.

        ``/stats`` readers must not assemble their view from separate
        ``hit_rate`` / ``cached_rows`` property reads — each takes the lock
        independently, so a concurrent insert between them yields a row
        count and hit rate from different moments.
        """
        with self._lock:
            total = self.hits + self.misses
            return {
                "rows": len(self._rows),
                "max_rows": self.max_rows,
                "hits": self.hits,
                "misses": self.misses,
                "faulted_reads": self.faulted_reads,
                "hit_rate": self.hits / total if total else 0.0,
                "visibility_paths": len(self._visibilities),
                "visibility_known": sum(
                    int((~np.isnan(known)).sum())
                    for known in self._visibilities.values()
                ),
                "visibility_hits": self.visibility_hits,
                "visibility_misses": self.visibility_misses,
            }

    def clear(self) -> None:
        """Drop all cached rows and visibilities and reset the counters."""
        with self._lock:
            self._rows.clear()
            self._row_bytes = 0
            self._visibilities.clear()
            self.hits = 0
            self.misses = 0
            self.visibility_hits = 0
            self.visibility_misses = 0
            self.faulted_reads = 0
