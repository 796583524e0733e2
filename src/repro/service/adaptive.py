"""Workload-adaptive online indexing: observe → re-plan → hot-swap.

The paper's SPM strategy chooses which length-2 rows to materialize from a
*static* initialization workload (§6.2).  A long-running service sees the
*live* query stream, and the two drift apart: vertices hot in production
were never indexed, vertices indexed at start-up stop being queried.
Atrapos and HetFS (PAPERS.md) both make the case that sustained meta-path
workloads reward re-planning against observed traffic; this module closes
that loop over the serving stack:

1. :class:`WorkloadRecorder` — the *observe* half.  The service appends the
   canonical key of every admitted query to a bounded in-memory log (a
   deque; old entries fall off).  Recording is O(1) and never blocks the
   admission path.
2. :class:`Reindexer` — the *re-plan + swap* half.  A background thread
   periodically mines the recorder with the same
   :class:`~repro.engine.optimizer.WorkloadAnalyzer` the paper's SPM build
   uses, ranks vertices hottest-first, rebuilds an SPM index off-thread
   under a byte budget (:func:`~repro.engine.index.build_spm_index`),
   and asks the service to hot-swap it atomically
   (:meth:`~repro.service.handle.EngineHandle.swap_index` + a backend
   refresh).  Queries never wait on a rebuild: the old index serves until
   the one-assignment publish.

Every cycle records why it did or did not swap (``skipped_*`` counters and
``last_skip_reason``), because a control loop that silently does nothing is
indistinguishable from a broken one.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.engine.index import build_spm_index
from repro.engine.optimizer import WorkloadAnalyzer
from repro.exceptions import QueryError, ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import QueryService

__all__ = ["WorkloadRecorder", "Reindexer"]

#: Admissions the recorder keeps; the re-indexer only ever sees the most
#: recent ones, which is what makes the loop *adaptive* — old traffic ages
#: out of the plan.
ADMISSION_LOG_ENTRIES = 4096


class WorkloadRecorder:
    """Bounded, thread-safe admission log of canonical query keys."""

    def __init__(self) -> None:
        self.max_entries = ADMISSION_LOG_ENTRIES
        self._lock = threading.Lock()
        self._entries: deque[str] = deque(maxlen=self.max_entries)
        self._total = 0

    def record(self, key: str) -> None:
        """Append one admitted query's canonical key (O(1), non-blocking)."""
        with self._lock:
            self._entries.append(key)
            self._total += 1

    def snapshot(self) -> tuple[int, list[str]]:
        """``(total_ever_recorded, current_window)`` — the miner's input."""
        with self._lock:
            return self._total, list(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "window_entries": len(self._entries),
                "max_entries": self.max_entries,
                "total_recorded": self._total,
            }


class Reindexer:
    """Background thread that re-plans the SPM index from live traffic.

    Each cycle (every ``interval_seconds``, or on demand via
    :meth:`run_once`):

    1. Snapshot the recorder.  Skip unless at least ``min_new_queries``
       admissions arrived since the last *attempted* cycle — re-planning
       an unchanged workload wastes a rebuild.
    2. Mine the window with :class:`WorkloadAnalyzer`, rank vertices by
       relative frequency (ties broken by vertex id for determinism), and
       keep those at or above ``spm_threshold`` — the paper's SPM
       selection rule applied to the live window.  ``submit`` logs a query
       before the engine validates it, so an entry the analyzer refuses as
       malformed (a request answered 400) is skipped as a dead log entry.
    3. Skip if the selection equals the currently served one (the index
       would be identical) or the byte budget admits no vertex at all.
    4. Build the new index off-thread and hand it to
       ``service.apply_index_swap`` — queries keep flowing against the old
       index for the whole build.

    Failures are caught, counted, and retried next cycle: a broken rebuild
    must degrade to "the index stops adapting", never to "the service
    stops answering".
    """

    def __init__(
        self,
        service: "QueryService",
        *,
        interval_seconds: float = 30.0,
        min_new_queries: int = 32,
        spm_threshold: float = 0.01,
        max_index_mb: float | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if interval_seconds <= 0:
            raise ServiceError(
                f"reindex interval must be > 0 seconds, got {interval_seconds}"
            )
        if min_new_queries < 1:
            raise ServiceError(
                f"min_new_queries must be >= 1, got {min_new_queries}"
            )
        self.service = service
        self.interval_seconds = interval_seconds
        self.min_new_queries = min_new_queries
        self.spm_threshold = spm_threshold
        self.max_index_mb = max_index_mb
        self._clock = clock
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._cycle_lock = threading.Lock()
        self._seen_total = 0
        self._served_selection: tuple = ()
        self.reindexes = 0
        self.cycles = 0
        self.skipped = 0
        self.failed = 0
        self.last_skip_reason: str | None = None
        self.last_error: str | None = None
        self.last_reindex_unix: float | None = None
        self.last_selected: list[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the background loop (daemon thread; idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-reindexer", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Signal the loop to exit and join it."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            try:
                self.run_once()
            except Exception:  # pragma: no cover - run_once already guards
                pass

    # ------------------------------------------------------------------
    # One control-loop cycle
    # ------------------------------------------------------------------
    def run_once(self) -> bool:
        """One observe→re-plan→swap cycle; True when a swap landed.

        Serialized by an internal lock so a slow scheduled cycle and an
        operator-triggered one never build two indexes concurrently.
        """
        with self._cycle_lock:
            self.cycles += 1
            try:
                return self._cycle()
            except Exception as error:
                self.failed += 1
                self.last_error = f"{type(error).__name__}: {error}"
                return False

    def _skip(self, reason: str) -> bool:
        self.skipped += 1
        self.last_skip_reason = reason
        return False

    def _cycle(self) -> bool:
        recorder = self.service.recorder
        if recorder is None:
            return self._skip("no-recorder")
        total, window = recorder.snapshot()
        new_queries = total - self._seen_total
        if new_queries < self.min_new_queries:
            return self._skip("too-few-new-queries")
        # Advance the watermark even when the cycle later skips or fails:
        # the same traffic should not retrigger an identical attempt.
        self._seen_total = total

        network = self.service.handle.network
        analyzer = WorkloadAnalyzer(network)
        for key in window:
            try:
                analyzer.analyze(key)
            except QueryError:
                continue  # refused by the service too: a dead log entry
        frequencies = analyzer.relative_frequencies()
        # Hottest first, vertex id as the deterministic tiebreak.
        ranked = [
            vertex
            for vertex, frequency in sorted(
                frequencies.items(), key=lambda item: (-item[1], item[0])
            )
            if frequency >= self.spm_threshold
        ]
        if not ranked:
            return self._skip("no-hot-vertices")

        max_bytes = (
            int(self.max_index_mb * 1024 * 1024)
            if self.max_index_mb is not None
            else None
        )
        index, indexed = build_spm_index(network, ranked, max_bytes=max_bytes)
        if not indexed:
            return self._skip("budget-excludes-all")
        selection = tuple(sorted(indexed))
        if selection == self._served_selection:
            return self._skip("selection-unchanged")

        self.service.apply_index_swap(index)
        self._served_selection = selection
        self.reindexes += 1
        self.last_reindex_unix = self._clock()
        self.last_selected = [str(vertex) for vertex in indexed]
        self.last_skip_reason = None
        return True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "interval_seconds": self.interval_seconds,
            "min_new_queries": self.min_new_queries,
            "spm_threshold": self.spm_threshold,
            "max_index_mb": self.max_index_mb,
            "running": self._thread is not None,
            "cycles": self.cycles,
            "reindexes": self.reindexes,
            "skipped": self.skipped,
            "failed": self.failed,
            "last_skip_reason": self.last_skip_reason,
            "last_error": self.last_error,
            "last_reindex_unix": self.last_reindex_unix,
            "last_selected": list(self.last_selected),
        }
