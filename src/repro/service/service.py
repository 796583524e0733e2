"""The concurrent query service: one shared engine, many callers.

:class:`QueryService` turns the batch engine into a long-lived server
component: a worker pool — threads over the shared engine, or spawned
processes over zero-copy shared-memory index views
(:mod:`repro.service.backends`) — executes queries against one shared
:class:`~repro.service.handle.EngineHandle`, a bounded admission budget
sheds overload with typed errors instead of unbounded queueing, and a
canonical-form result cache absorbs repeated queries.

The programmatic surface is future-based so it embeds anywhere::

    with QueryService.from_network(network, strategy="pm") as service:
        future = service.submit('FIND OUTLIERS FROM ... TOP 5;')
        result = service.result(future, timeout=5.0)

``submit`` is non-blocking: it either returns a future (admitted, cache
hit, or coalesced onto an identical in-flight request) or raises
immediately (:class:`~repro.exceptions.ServiceOverloadedError` on a full
queue, :class:`~repro.exceptions.QueryError` on a malformed query,
:class:`~repro.exceptions.ServiceClosedError` after shutdown).  The HTTP
frontend in :mod:`repro.service.http` is a thin JSON adapter over exactly
this API.

Backend-agnosticism: the service layer never touches threads or processes
directly.  It admits a request, hands the canonical query text and its
parsed AST to the backend (threads execute the AST; process workers are
sent the text and parse it once), and finishes the request from the
backend future's done-callback — the same code path releases the
admission slot whether the query succeeded, failed, timed out, was
cancelled by a non-drain close, or died with a crashed worker process.
That single-exit design is what makes ``close()`` drain-correct: no path
can strand an admission slot.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as futures_wait
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.core.results import OutlierResult
from repro.engine.index import (
    DEFAULT_BUILD_BLOCK_ROWS,
    LazyPMIndex,
    MetaPathIndex,
    build_pm_index,
)
from repro.engine.strategies import strategy_name
from repro.hin.network import HeterogeneousInformationNetwork
from repro.hin.storage import MmapArrayStore
from repro.exceptions import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.query.ast import Query
from repro.service.admission import AdmissionController
from repro.service.adaptive import Reindexer, WorkloadRecorder
from repro.service.backends import (
    ExecutionBackend,
    _resolve,
    make_backend,
    segment_parent,
)
from repro.service.cache import ResultCache, canonical_query_key
from repro.service.config import ServiceConfig
from repro.service.handle import EngineHandle
from repro.service.keys import query_ast

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.resilience import ResiliencePolicy

__all__ = ["QueryService"]


class QueryService:
    """Admission-controlled, cached, concurrent execution of outlier queries.

    Parameters
    ----------
    handle:
        The shared engine (network + index + measure), already warmed.
    config:
        Deployment knobs; see :class:`~repro.service.config.ServiceConfig`.
        ``config.backend`` selects thread or process execution — results
        are byte-identical either way.

    Notes
    -----
    Lifecycle: the worker pool starts immediately (the process backend
    additionally commits the index as its worker segment and spawns workers
    here); call :meth:`close` (or use the service as a context manager) to
    drain and stop it.  After ``close``, :meth:`submit` raises
    :class:`~repro.exceptions.ServiceClosedError`; requests admitted before
    the close still complete, their admission slots are released, and the
    process backend's worker segment is removed.
    """

    def __init__(
        self, handle: EngineHandle, config: ServiceConfig | None = None
    ) -> None:
        self.handle = handle
        self.config = config if config is not None else ServiceConfig()
        self.admission = AdmissionController(self.config.capacity)
        self.cache = ResultCache(
            max_entries=self.config.cache_max_entries,
            ttl_seconds=self.config.cache_ttl_seconds,
        )
        # Attach the shared sub-path cache *before* the backend spawns:
        # the process backend ships the engine spec to its workers, and the
        # cache budget travels with it so every worker builds its own.
        if self.config.subpath_cache_mb > 0:
            handle.attach_subpath_cache(self.config.subpath_cache_mb)
        self.recorder: WorkloadRecorder | None = None
        self.reindexer: Reindexer | None = None
        if self.config.adaptive:
            handle.require_spm("adaptive re-indexing")
            self.recorder = WorkloadRecorder()
        self.backend: ExecutionBackend = make_backend(
            handle,
            backend=self.config.backend,
            workers=self.config.workers,
            timeout_seconds=self.config.timeout_seconds,
            segment_dir=segment_parent(
                self.config.storage, self.config.storage_dir
            ),
        )
        if self.config.adaptive:
            self.reindexer = Reindexer(
                self,
                interval_seconds=self.config.reindex_interval_seconds,
                min_new_queries=self.config.reindex_min_queries,
                max_index_mb=self.config.max_index_mb,
            )
            self.reindexer.start()
        self._lock = threading.Lock()
        self._closed = False
        self._draining = False
        #: Identical queries submitted while one is already executing share
        #: its future instead of burning another admission slot.
        self._pending: dict[str, Future] = {}
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._coalesced = 0
        # Exponential moving average of request execution latency, the
        # basis of the retry-after hint attached to shed requests.
        self._latency_ewma: float | None = None

    @classmethod
    def from_network(
        cls,
        network: HeterogeneousInformationNetwork,
        config: ServiceConfig | None = None,
        *,
        strategy: str = "pm",
        measure: str = "netout",
        combine: str = "score",
        index=None,
        resilience: "ResiliencePolicy | None" = None,
        row_cache_rows: int = 4096,
    ) -> "QueryService":
        """Build the engine handle and the service in one call.

        ``index`` forwards a prebuilt :class:`~repro.engine.index.MetaPathIndex`
        (e.g. one attached from an out-of-core build via
        :func:`repro.engine.index_io.load_index`) so the handle serves
        it instead of rebuilding in RAM.  Without one, ``storage="mmap"``
        with the ``pm`` strategy builds the full index out-of-core, in
        :data:`~repro.engine.index.DEFAULT_BUILD_BLOCK_ROWS` row blocks
        (fewer under ``config.max_build_memory_mb``), and serves it through
        read-only file-backed views (under ``<storage_dir>/pm-index``, or a
        private temp dir) — the path that keeps million-vertex networks off
        the RAM budget entirely.  On the RAM tier the thread backend serves
        ``pm`` from a :class:`~repro.engine.index.LazyPMIndex`: nothing is
        built here, each length-2 matrix is formed at its first read, and a
        ladder's policy (``allow_degraded``) guards each build.  The process
        backend keeps the eager index, built once at warm-up and mapped by
        every worker from one shared segment.
        """
        config = config if config is not None else ServiceConfig()
        if index is None and strategy_name(strategy) == "pm":
            if config.storage == "mmap":
                directory = config.storage_dir
                index = build_pm_index(
                    network,
                    block_rows=DEFAULT_BUILD_BLOCK_ROWS,
                    max_build_memory_mb=config.max_build_memory_mb,
                    store=MmapArrayStore(
                        Path(directory) / "pm-index" if directory else None
                    ),
                )
            elif config.backend == "thread":
                ladder = resilience is not None and resilience.allow_degraded
                index = LazyPMIndex(network, policy=resilience if ladder else None)
        handle = EngineHandle(
            network,
            strategy=strategy,
            measure=measure,
            combine=combine,
            index=index,
            resilience=resilience,
            row_cache_rows=row_cache_rows,
        )
        return cls(handle, config)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, query: str | Query) -> "Future[OutlierResult]":
        """Submit one query; returns a future resolving to its result.

        Order of gates, cheapest first:

        1. **Parse and canonicalize** — the one parse of the request;
           malformed queries raise :class:`~repro.exceptions.QueryError`
           here, costing nothing.  The AST's canonical text keys the cache.
        2. **Cache** — a fresh same-version entry resolves immediately.
        3. **Coalesce** — an identical in-flight query shares its future.
        4. **Admit** — claim a bounded slot or shed with
           :class:`~repro.exceptions.ServiceOverloadedError`.
        """
        ast = query_ast(query)
        key = canonical_query_key(ast)
        # Feed the adaptive workload log before any other gate: cache hits
        # and coalesced submissions are *demand* too — a vertex served
        # entirely from the result cache today still deserves index rows
        # when the cache churns tomorrow.  Recording is O(1) under the
        # recorder's own lock; a well-formed query that is then shed or
        # refused contributes one (negligible) phantom log entry.
        if self.recorder is not None and not self._closed and not self._draining:
            self.recorder.record(key)
        with self._lock:
            if self._closed or self._draining:
                raise ServiceClosedError(
                    "the query service is draining; no new requests"
                    if self._draining and not self._closed
                    else "the query service has been shut down; no new requests"
                )
            self._submitted += 1
            cached = self.cache.get(key, version=self.handle.version)
            if cached is not None:
                done: "Future[OutlierResult]" = Future()
                done.set_result(cached)
                # Frontends report whether an answer came from the result
                # cache.  `future.done()` cannot tell them: a fast backend
                # can resolve a fresh future before the caller samples it.
                done.from_cache = True
                return done
            pending = self._pending.get(key)
            if pending is not None:
                self._coalesced += 1
                return pending
            self.admission.admit(retry_after_seconds=self._retry_after_hint())
            future: "Future[OutlierResult]" = Future()
            self._pending[key] = future
        # Backend interaction happens OUTSIDE the service lock: the backend
        # takes its own lock, and its done-callbacks re-enter _finish (which
        # takes ours) — calling across while holding either would deadlock.
        started = time.monotonic()
        try:
            backend_future = self.backend.submit(key, ast)
        except BaseException as error:
            # The backend refused (closed race, all workers dead): undo the
            # admission, fail coalesced waiters, surface to this caller.
            with self._lock:
                self._failed += 1
                self._pending.pop(key, None)
            self.admission.release()
            _resolve(future, error=error)
            raise
        backend_future.add_done_callback(
            lambda done_future: self._finish(key, started, future, done_future)
        )
        return future

    def execute(
        self, query: str | Query, *, timeout: float | None = None
    ) -> OutlierResult:
        """Synchronous convenience: ``submit`` then wait for the result."""
        return self.result(self.submit(query), timeout=timeout)

    def execute_many(
        self, queries: Sequence[str | Query], *, timeout: float | None = None
    ) -> list[OutlierResult]:
        """Run a batch through the service, in input order.

        Unlike :meth:`submit`, a full admission queue does not shed here —
        the batch *is* the backpressure: when the service is saturated the
        next submission waits for one of this batch's own in-flight queries
        to finish and retries.  Errors of individual queries re-raise when
        their result is collected.
        """
        futures: dict[int, "Future[OutlierResult]"] = {}
        for position, query in enumerate(queries):
            while True:
                try:
                    futures[position] = self.submit(query)
                    break
                except ServiceOverloadedError:
                    ours = [f for f in futures.values() if not f.done()]
                    if ours:
                        futures_wait(ours, return_when=FIRST_COMPLETED)
                    else:
                        # Saturated by *other* callers: brief backoff.
                        time.sleep(0.005)
        return [
            futures[position].result(timeout=timeout)
            for position in range(len(futures))
        ]

    @staticmethod
    def result(
        future: "Future[OutlierResult]", *, timeout: float | None = None
    ) -> OutlierResult:
        """Wait for a submitted query's result (re-raising its error)."""
        return future.result(timeout=timeout)

    def invalidate_cache(self) -> int:
        """Drop all cached results (e.g. after an out-of-band data change)."""
        return self.cache.invalidate()

    # ------------------------------------------------------------------
    # Adaptive indexing
    # ------------------------------------------------------------------
    def apply_index_swap(self, index: "MetaPathIndex") -> int:
        """Hot-swap the served SPM index, then roll it out to the backend.

        Two halves, in the only safe order: the parent handle swaps first
        (:meth:`~repro.service.handle.EngineHandle.swap_index` bumps the
        network version, which invalidates old result-cache entries), then
        the backend adopts it — a no-op for threads, a worker-segment
        generation roll for processes.  In the overlap window both
        engines answer, and both answers are byte-identical by
        construction.  Returns the new network version.
        """
        version = self.handle.swap_index(index)
        self.backend.refresh_engine()
        return version

    def reindex_now(self) -> bool:
        """Run one adaptive re-index cycle synchronously (operator hook).

        Returns True when a swap landed; raises
        :class:`~repro.exceptions.ServiceError` when the service was not
        configured with ``adaptive=True``.
        """
        if self.reindexer is None:
            raise ServiceError(
                "this service was not configured with adaptive=True"
            )
        return self.reindexer.run_once()

    # ------------------------------------------------------------------
    # Completion (single exit path for every submitted request)
    # ------------------------------------------------------------------
    def _finish(
        self,
        key: str,
        started: float,
        future: "Future[OutlierResult]",
        backend_future: "Future[OutlierResult]",
    ) -> None:
        result: OutlierResult | None = None
        error: BaseException | None = None
        if backend_future.cancelled():
            error = ServiceClosedError(
                "the query service shut down before this request ran"
            )
        else:
            error = backend_future.exception()
            if error is None:
                result = backend_future.result()
        if result is not None:
            self.cache.put(key, result, version=self.handle.version)
        elapsed = time.monotonic() - started
        with self._lock:
            self._pending.pop(key, None)
            if error is None:
                self._completed += 1
                self._latency_ewma = (
                    elapsed
                    if self._latency_ewma is None
                    else 0.8 * self._latency_ewma + 0.2 * elapsed
                )
            else:
                self._failed += 1
        # Every admitted request reaches exactly this release, on success,
        # failure, timeout, crash-retry exhaustion, and non-drain close —
        # the drain-correctness invariant close() relies on.
        self.admission.release()
        _resolve(future, result=result, error=error)

    def _retry_after_hint(self) -> float:
        """Expected wait for a freed slot: queue drain time at recent pace."""
        latency = self._latency_ewma if self._latency_ewma is not None else 0.05
        waiting = max(1, self.admission.in_flight - self.config.workers + 1)
        return max(0.01, latency * waiting / self.config.workers)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def draining(self) -> bool:
        """True once a graceful drain has begun (and until fully closed)."""
        return self._draining and not self._closed

    def begin_drain(self) -> None:
        """Stop accepting new requests; keep answering health checks.

        The liveness/readiness split a load balancer needs: after this
        call ``/healthz`` reports ``503 {"status": "draining"}`` (the
        balancer stops sending new queries), :meth:`submit` raises
        :class:`~repro.exceptions.ServiceClosedError`, but in-flight
        requests keep executing and the HTTP socket stays up until
        :meth:`close` — so the queue drains *visibly* instead of the
        socket dying mid-request.  Idempotent; a no-op after ``close``.
        """
        with self._lock:
            self._draining = True

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting requests, settle in-flight ones, tear down workers.

        Idempotent.  With ``drain=True`` (the default) every in-flight
        request completes, its future resolves, and its admission slot is
        released **before** workers are torn down; with ``drain=False``
        queued-but-unstarted work resolves with
        :class:`~repro.exceptions.ServiceClosedError` (or cancellation)
        instead of executing.  Either way the process backend removes its
        worker segment before this returns.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Stop the re-indexer before the backend: a swap must never race a
        # teardown (refresh_engine refuses once closing anyway).
        if self.reindexer is not None:
            self.reindexer.stop()
        self.backend.close(drain=drain)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> dict:
        """One JSON-safe snapshot of every service counter.

        Shape: ``{"service": ..., "admission": ..., "cache": ...,
        "engine": ..., "backend": ...}`` — the HTTP frontend returns it
        verbatim from ``GET /stats``.  Each section is captured under its
        owner's lock, so every section is internally consistent.
        """
        with self._lock:
            service = {
                "backend": self.config.backend,
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
                "timeout_seconds": self.config.timeout_seconds,
                "closed": self._closed,
                "draining": self._draining and not self._closed,
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "coalesced": self._coalesced,
                "pending": len(self._pending),
                "latency_ewma_seconds": self._latency_ewma,
            }
        engine = {
            "fingerprint": self.handle.fingerprint,
            "network_version": self.handle.version,
            "index_size_bytes": self.handle.index_size_bytes(),
            # Index metadata (version, row coverage, sub-path cache hit
            # rate, last-reindex stamp): the observability surface /stats
            # consumers read.
            "index": self.handle.index_metadata(),
        }
        if self.handle.subpath_cache is not None:
            subpath = self.handle.subpath_cache.snapshot()
            engine["subpath_cache_hit_rate"] = subpath["hit_rate"]
            engine["subpath_cache"] = subpath
        if self.handle.row_cache is not None:
            # One-lock snapshot: hit rate and row count from the same moment.
            row_cache = self.handle.row_cache.snapshot()
            engine["row_cache_hit_rate"] = row_cache["hit_rate"]
            engine["row_cache_rows"] = row_cache["rows"]
            engine["row_cache"] = row_cache
        snapshot = {
            "service": service,
            "admission": self.admission.snapshot(),
            "cache": self.cache.snapshot(),
            "engine": engine,
            "backend": self.backend.stats(),
        }
        if self.recorder is not None or self.reindexer is not None:
            snapshot["adaptive"] = {
                "recorder": (
                    self.recorder.stats() if self.recorder is not None else None
                ),
                "reindexer": (
                    self.reindexer.stats() if self.reindexer is not None else None
                ),
            }
        return snapshot
