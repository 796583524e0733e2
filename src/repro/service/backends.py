"""Execution backends for the query service: threads or worker processes.

:class:`QueryService` owns admission, caching, and coalescing; it delegates
the actual *execution* of an admitted query to an
:class:`ExecutionBackend`:

* :class:`ThreadBackend` — the PR-3 design: a thread pool sharing the
  parent's :class:`~repro.service.handle.EngineHandle`.  Zero start-up
  cost, but the GIL serializes the Python-side parse/evaluate/aggregate
  work around the SciPy kernels.
* :class:`ProcessBackend` — spawn-based worker processes.  The warmed CSR
  buffers (adjacency + PM/SPM index) are committed as **one**
  :class:`~repro.hin.storage.MmapArrayStore` directory, the worker
  segment: under ``/dev/shm`` on the RAM tier (a tmpfs, so the store is
  shared memory), under ``storage_dir`` on the mmap tier.  Each worker
  attaches it — fingerprint re-checked, zero-copy read-only views — and
  rebuilds an equivalent engine handle, so N workers cost one copy of the
  index plus per-worker interpreter overhead.  Each worker has one duplex
  pipe whose ends have one holder each, so end-of-file is death both
  ways: the parent's one watcher thread reads every reply and treats a
  pipe's end-of-file as that worker's death (its outstanding queries are
  resubmitted once — queries are read-only, so the retry is safe — and it
  is respawned), and a worker whose server dies reads end-of-file and
  exits.  Start-up is the attach of index generation 0 and a hot-swap the
  attach of generation N; both wait on one barrier.

Both backends speak the same tiny contract — ``submit(canonical_text,
query=None) -> Future[OutlierResult]``, where ``query`` is the text's
parsed AST when the caller holds one: threads execute it, so a request is
parsed once; process workers are sent the text and parse it there — and
produce byte-identical
``OutlierResult.to_dict()`` payloads: the process backend pickles a result
as its columns and ranked records (no ``stats``), exactly what the lossless
wire form the HTTP frontend uses is encoded from.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from pathlib import Path

from repro import exceptions as _exceptions
from repro.core.results import OutlierResult
from repro.engine.deadline import Deadline
from repro.exceptions import (
    ExecutionError,
    ServiceClosedError,
    ServiceError,
    WorkerCrashedError,
)
from repro.hin.storage import MmapArrayStore
from repro.query.ast import Query
from repro.service.handle import EngineHandle

__all__ = [
    "ExecutionBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
]


def _resolve(
    future: "Future[OutlierResult]",
    *,
    result: OutlierResult | None = None,
    error: BaseException | None = None,
) -> None:
    """Resolve a future exactly once; later attempts are no-ops.

    A request can race between a worker finishing it, a non-drain close
    abandoning it, and a caller cancelling it — whichever resolves first
    wins; the others must not crash on ``InvalidStateError``.
    """
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except Exception:  # InvalidStateError: the race was lost, result stands
        pass


class ExecutionBackend:
    """Contract both backends implement (duck-typed; this is documentation).

    ``submit`` never blocks on execution: it returns a future or raises
    :class:`~repro.exceptions.ServiceClosedError` /
    :class:`~repro.exceptions.ServiceError`.  ``close(drain=True)`` waits
    for every in-flight future to resolve before tearing workers down;
    ``drain=False`` cancels queued work and abandons the rest (their
    futures resolve with :class:`~repro.exceptions.ServiceClosedError`).
    """

    name = "abstract"

    def submit(
        self, query_text: str, query: Query | None = None
    ) -> "Future[OutlierResult]":
        raise NotImplementedError

    def refresh_engine(self) -> None:
        """Adopt the parent handle's current engine after an index hot-swap.

        The default is a no-op, which is correct for any backend whose
        workers execute directly against the parent's
        :class:`~repro.service.handle.EngineHandle` (the thread backend):
        the swap's atomic attribute publish is immediately visible to every
        thread.  The process backend overrides this to roll a fresh
        worker-segment generation out to its workers.
        """

    def live_workers(self) -> int:
        raise NotImplementedError

    def stats(self) -> dict:
        raise NotImplementedError

    def close(self, *, drain: bool = True) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Thread backend
# ----------------------------------------------------------------------
class ThreadBackend(ExecutionBackend):
    """Execute queries on a thread pool over the parent's engine handle."""

    name = "thread"

    def __init__(
        self,
        handle: EngineHandle,
        *,
        workers: int,
        timeout_seconds: float | None = None,
    ) -> None:
        self.handle = handle
        self._workers = workers
        self._timeout_seconds = timeout_seconds
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        self._lock = threading.Lock()
        self._outstanding: set[Future] = set()
        self._completed = 0
        self._failed = 0
        self._closed = False

    def submit(
        self, query_text: str, query: Query | None = None
    ) -> "Future[OutlierResult]":
        future: "Future[OutlierResult]" = Future()
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "the query service has been shut down; no new requests"
                )
            self._outstanding.add(future)
        try:
            # The engine executes the caller's AST as is: no second parse.
            self._pool.submit(
                self._run, query_text if query is None else query, future
            )
        except RuntimeError as error:
            # Lost the race with close(): the pool refused the task after
            # shutdown began.  Surface the same typed error submit-on-closed
            # raises, and never leave the future unresolved.
            with self._lock:
                self._outstanding.discard(future)
            raise ServiceClosedError(
                "the query service has been shut down; no new requests"
            ) from error
        return future

    def _run(self, query: str | Query, future: "Future[OutlierResult]") -> None:
        # A future cancelled by a non-drain close never starts executing.
        if not future.set_running_or_notify_cancel():
            with self._lock:
                self._outstanding.discard(future)
            return
        try:
            deadline = (
                Deadline(self._timeout_seconds)
                if self._timeout_seconds is not None
                else None
            )
            result = self.handle.execute(query, deadline=deadline)
        except BaseException as error:  # noqa: BLE001 - forwarded to waiters
            with self._lock:
                self._failed += 1
                self._outstanding.discard(future)
            _resolve(future, error=error)
        else:
            with self._lock:
                self._completed += 1
                self._outstanding.discard(future)
            _resolve(future, result=result)

    def live_workers(self) -> int:
        return 0 if self._closed else self._workers

    def stats(self) -> dict:
        with self._lock:
            return {
                "backend": self.name,
                "configured_workers": self._workers,
                "live_workers": self.live_workers(),
                "executing_or_queued": len(self._outstanding),
                "completed": self._completed,
                "failed": self._failed,
            }

    def close(self, *, drain: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            outstanding = list(self._outstanding)
        if drain:
            self._pool.shutdown(wait=True)
        else:
            # Queued-but-unstarted work is cancelled (``_run`` observes the
            # cancellation and returns); running queries finish on their
            # own threads without blocking this call.
            for future in outstanding:
                future.cancel()
            self._pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------
def _rebuild_error(type_name: str, message: str, extras: dict) -> BaseException:
    """Reconstruct a worker-side exception from its wire form.

    Known ``repro`` exception types come back as themselves (so the HTTP
    status mapping — 504 for deadline overruns, etc. — is backend
    agnostic); anything unrecognized degrades to
    :class:`~repro.exceptions.ExecutionError`.
    """
    cls = getattr(_exceptions, type_name, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        cls = ExecutionError
    kwargs = {key: value for key, value in extras.items() if value is not None}
    try:
        return cls(message, **kwargs)
    except TypeError:
        try:
            return cls(message)
        except TypeError:
            return ExecutionError(message)


#: Exception attributes carried across the process boundary (only the ones
#: the HTTP layer or callers inspect).
_ERROR_EXTRAS = (
    "budget_seconds",
    "elapsed_seconds",
    "estimated_bytes",
    "limit_bytes",
    "position",
    "line",
)


#: A tmpfs on Linux: a store committed under it is shared memory.
_SHM_DIR = "/dev/shm"
_SEGMENT_PREFIX = "repro-serve-"


def segment_parent(storage: str = "ram", storage_dir: str | None = None) -> str:
    """The directory worker segments are committed under, by storage tier.

    The RAM tier uses ``/dev/shm``; the mmap tier, whose one shared copy
    must not consume RAM-backed tmpfs, uses ``storage_dir``.  Either falls
    back to the temp dir.
    """
    if storage == "mmap":
        return storage_dir or tempfile.gettempdir()
    return _SHM_DIR if os.path.isdir(_SHM_DIR) else tempfile.gettempdir()


def _reclaim_orphans(parent: "str | os.PathLike") -> None:
    """Remove sibling segments whose owner process no longer exists.

    Only the owner's :meth:`_StoreSegment.release` removes a segment, so one
    a SIGKILLed owner left behind is reclaimed here, by the next export into
    the same directory.
    """
    for path in Path(parent).glob(f"{_SEGMENT_PREFIX}*-*"):
        pid = path.name[len(_SEGMENT_PREFIX):].split("-")[0]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except (OSError, OverflowError):  # another user's, or not a pid
            pass


class _StoreSegment:
    """One worker-segment generation: a committed array store.

    The directory is named ``repro-serve-<owner pid>-<random>``.  Workers
    open it with :meth:`MmapArrayStore.open`, which re-checks the store's
    fingerprint.  :meth:`release` removes the directory; Linux keeps a
    removed file's pages readable for a worker that still maps them.
    """

    def __init__(self, arrays: dict, parent: "str | os.PathLike") -> None:
        os.makedirs(parent, exist_ok=True)
        _reclaim_orphans(parent)
        self.directory = tempfile.mkdtemp(
            prefix=f"{_SEGMENT_PREFIX}{os.getpid()}-", dir=parent
        )
        self.total_bytes = sum(int(array.nbytes) for array in arrays.values())
        try:
            store = MmapArrayStore(self.directory)
            for key, array in arrays.items():
                store.put(key, array)
            store.commit()
        except BaseException:
            self.release()
            raise

    def release(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def export_segment(arrays: dict, directory: "str | os.PathLike") -> _StoreSegment:
    """Commit ``arrays`` as one worker-segment generation under ``directory``."""
    return _StoreSegment(arrays, directory)


def _attach(spec: bytes, segment: str) -> EngineHandle:
    """Worker side of :func:`export_segment`: an engine over the store's views."""
    return EngineHandle.from_shared(
        pickle.loads(spec), MmapArrayStore.open(segment).arrays()
    )


def _service_worker_main(
    connection,
    generation: int,
    spec: bytes,
    segment: str,
    timeout_seconds: float | None,
) -> None:
    """Worker process body: attach ``generation``, then serve until told to stop.

    Spawn-safe: the CSR buffers arrive as the ``segment`` store directory,
    mapped zero-copy, and the spec as pickled bytes that the attach itself
    unpickles, so a spec that cannot be rebuilt is an attach failure.

    The duplex pipe is the worker's one channel and each end has one
    holder, so end-of-file is death both ways: the parent reads it when this
    worker dies (a torn frame included), and this worker reads it, and
    exits, when its server dies.  In: ``("swap", generation, spec,
    segment)``, ``("task", task_id, text)``, ``("stop",)``.  Out:
    ``("attached", generation)``, ``("attach-error", generation, text)`` as
    the last message, and per task ``("result", task_id, result)`` or
    ``("error", task_id, type_name, message, extras)``.  Start-up attaches
    the spawn generation and a hot-swap generation N; the loop is serial, so
    a swap lands *between* queries and no query sees a half-swapped engine.
    """
    message = ("swap", generation, spec, segment)
    try:
        while message[0] != "stop":
            if message[0] == "swap":
                _, generation, spec, segment = message
                try:
                    handle = _attach(spec, segment)
                except BaseException as error:  # noqa: BLE001 - reported, then exit
                    connection.send(
                        ("attach-error", generation, f"{type(error).__name__}: {error}")
                    )
                    return
                connection.send(("attached", generation))
            else:
                _, task_id, query_text = message
                deadline = (
                    Deadline(timeout_seconds) if timeout_seconds is not None else None
                )
                try:
                    result = handle.execute(query_text, deadline=deadline)
                except BaseException as error:  # noqa: BLE001 - shipped to parent
                    extras = {
                        attr: getattr(error, attr)
                        for attr in _ERROR_EXTRAS
                        if getattr(error, attr, None) is not None
                    }
                    reply = ("error", task_id, type(error).__name__, str(error), extras)
                else:
                    # Pickled as columns plus the k ranked records.
                    reply = ("result", task_id, result)
                connection.send(reply)
            message = connection.recv()
    except (EOFError, OSError):
        return  # the server is gone


@dataclass
class _Task:
    task_id: int
    query_text: str
    future: "Future[OutlierResult]"
    retried: bool = False


@dataclass
class _WorkerSlot:
    worker_id: int
    process: "multiprocessing.process.BaseProcess | None" = None
    #: Parent end of the worker's pipe; ``None`` once the worker is dead
    #: and not replaced (restart budget spent, or the backend closed).
    connection: "object | None" = None
    #: One sender per pipe at a time; the watcher closes a dead pipe under
    #: it too, so no send races the close.
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    #: The current process has attached at least once.
    ready: bool = False
    #: Index generation the worker's engine was built from (the spawn
    #: generation until its first attach).
    generation: int = 0
    restarts: int = 0
    completed: int = 0
    failed: int = 0
    last_error: str | None = None
    outstanding: dict[int, _Task] = field(default_factory=dict)


def _send(slot: _WorkerSlot, connection, message: tuple) -> None:
    """Send outside the backend lock.  A dead worker's pipe refuses the
    message; its end-of-file re-routes whatever the worker held."""
    with slot.send_lock:
        try:
            connection.send(message)
        except (OSError, ValueError):
            pass


def _send_all(sends: list) -> None:
    for slot, connection, message in sends:
        _send(slot, connection, message)


class ProcessBackend(ExecutionBackend):
    """Execute queries in spawn-based worker processes over one shared segment.

    Parameters
    ----------
    handle:
        The warmed parent engine.  Its CSR buffers are committed as one
        worker segment at construction; the parent keeps serving from its
        own copy (e.g. for ``/schema``), workers serve from the segment's
        pages.
    workers:
        Worker process count.
    timeout_seconds:
        Per-request cooperative deadline, enforced inside each worker with
        the same machinery the thread backend uses.
    start_timeout_seconds:
        How long to wait for every worker to attach generation 0 before
        treating start-up as failed (segment is unlinked on that path).
    max_restarts:
        Crash-replacement budget **per worker slot**; beyond it the slot is
        retired (prevents a crash-looping query from forking forever).
    segment_dir:
        Parent directory of the worker segments (:func:`segment_parent`
        of the RAM tier when ``None``).  Owner teardown removes them.
    """

    name = "process"

    def __init__(
        self,
        handle: EngineHandle,
        *,
        workers: int,
        timeout_seconds: float | None = None,
        start_timeout_seconds: float = 120.0,
        max_restarts: int = 3,
        segment_dir: str | None = None,
    ) -> None:
        self.handle = handle
        self._timeout_seconds = timeout_seconds
        self._max_restarts = max_restarts
        self._segment_dir = segment_dir or segment_parent()
        self._ctx = multiprocessing.get_context("spawn")
        spec, arrays = handle.export_shared()
        self._spec = pickle.dumps(spec)
        self._segment = export_segment(arrays, self._segment_dir)
        self._generation = 0
        self._lock = threading.Lock()
        #: Notified on every attach, attach failure and death.
        self._attach_changed = threading.Condition(self._lock)
        self._accepting = True
        self._closed = False
        self._next_task_id = 0
        self._tasks: dict[int, _Task] = {}
        #: ``(generation, text)`` of every failed attach.
        self._attach_errors: list[tuple[int, str]] = []
        # Old segments a failed swap could not safely remove yet; they are
        # removed at close() so no generation outlives the service.
        self._retired_segments: list = []
        self._slots = [_WorkerSlot(worker_id=i) for i in range(workers)]
        self._watcher = threading.Thread(
            target=self._watch, name="repro-serve-watcher", daemon=True
        )
        try:
            for slot in self._slots:
                self._spawn(slot)
            self._watcher.start()
            self._await_attach(
                0, start_timeout_seconds, "process backend failed to start"
            )
        except BaseException:
            # Start-up failed: tear down whatever came up and never leak
            # the worker segment.
            self._teardown()
            raise

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, slot: _WorkerSlot) -> None:
        # A fresh pipe per (re)spawn: anything a dead worker left
        # half-written dies with its pipe.  The spec/segment read here are
        # the *current* ones (published under the lock by refresh_engine),
        # so a replacement mid-swap attaches the new generation directly.
        connection, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_service_worker_main,
            args=(
                child,
                self._generation,
                self._spec,
                self._segment.directory,
                self._timeout_seconds,
            ),
            name=f"repro-serve-worker-{slot.worker_id}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            # The worker holds the only other end now: end-of-file on
            # ``connection`` is its death.
            child.close()
        slot.process, slot.connection = process, connection
        slot.ready, slot.generation = False, self._generation

    def _await_attach(self, generation: int, timeout: float, failing: str) -> None:
        """The one barrier, for start-up (generation 0) and hot-swap (N).

        Returns once every live worker has attached ``generation`` (or the
        backend closed); raises :class:`ServiceError` prefixed ``failing``
        on any attach failure of that generation, or at the timeout.
        """
        deadline = time.monotonic() + timeout
        with self._attach_changed:
            while not self._closed:
                errors = [text for at, text in self._attach_errors if at == generation]
                if errors:
                    raise ServiceError(
                        f"{failing}: index generation {generation} failed to "
                        f"attach: {'; '.join(errors)}"
                    )
                lagging = [
                    slot.worker_id
                    for slot in self._slots
                    if slot.connection is not None
                    and not (slot.ready and slot.generation >= generation)
                ]
                if not lagging:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"{failing}: workers {lagging} did not attach index "
                        f"generation {generation} within {timeout:.0f}s"
                    )
                self._attach_changed.wait(remaining)

    # -- submission ----------------------------------------------------
    def submit(
        self, query_text: str, query: Query | None = None
    ) -> "Future[OutlierResult]":
        # Workers are sent the text, never ``query``: each parses it once.
        future: "Future[OutlierResult]" = Future()
        with self._lock:
            if not self._accepting:
                raise ServiceClosedError(
                    "the query service has been shut down; no new requests"
                )
            slot = self._pick_slot_locked()
            if slot is None:
                # A server-side fault (HTTP 500), not a client error.
                raise WorkerCrashedError(
                    "no live worker processes (all crashed past their "
                    "restart budget); restart the service"
                )
            task = _Task(self._next_task_id, query_text, future)
            self._next_task_id += 1
            self._tasks[task.task_id] = task
            slot.outstanding[task.task_id] = task
            connection = slot.connection
        _send(slot, connection, ("task", task.task_id, query_text))
        return future

    def _pipes_locked(self) -> list:
        """``(slot, connection)`` of every live worker (caller holds the lock)."""
        return [
            (slot, slot.connection)
            for slot in self._slots
            if slot.connection is not None
        ]

    def _pick_slot_locked(self) -> _WorkerSlot | None:
        """Least-loaded live worker (caller holds the lock)."""
        live = [slot for slot, _ in self._pipes_locked()]
        return min(live, key=lambda slot: len(slot.outstanding), default=None)

    # -- the watcher ---------------------------------------------------
    def _watch(self) -> None:
        """Read every worker's replies; end-of-file on a pipe is its death.

        The watcher never sends: a worker blocked writing a large reply
        waits on this thread, so a blocking send here could deadlock.
        """
        while True:
            with self._lock:
                slots = {connection: slot for slot, connection in self._pipes_locked()}
            if not slots:
                return  # every worker stopped or retired; none can respawn
            for connection in connection_wait(list(slots)):
                slot = slots[connection]
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    self._on_death(slot)
                    continue
                if message[0] == "attached":
                    with self._lock:
                        slot.ready, slot.generation = True, message[1]
                        self._attach_changed.notify_all()
                elif message[0] == "attach-error":
                    self._on_death(slot, message[1:])
                else:
                    self._deliver(slot, message)

    def _deliver(self, slot: _WorkerSlot, message: tuple) -> None:
        kind, task_id = message[0], message[1]
        with self._lock:
            task = self._tasks.pop(task_id, None)
            slot.outstanding.pop(task_id, None)
            if task is None:
                return  # resolved by a crash-retry race; first answer stands
            if kind == "result":
                slot.completed += 1
            else:
                slot.failed += 1
        if kind == "result":
            _resolve(task.future, result=message[2])
        else:
            _resolve(task.future, error=_rebuild_error(*message[2:]))

    def _on_death(
        self, slot: _WorkerSlot, failure: tuple[int, str] | None = None
    ) -> None:
        """Respawn a dead worker and re-route its outstanding queries.

        Called at end-of-file, once every reply the worker sent has been
        delivered, or at ``attach-error``, its last message.  A death before
        the first attach fails the spawn generation's attach.
        """
        failures: list[tuple[_Task, str]] = []
        routed: list[tuple[_WorkerSlot, object, tuple]] = []
        with self._lock:
            with slot.send_lock:
                slot.connection.close()
            slot.connection = None
            slot.process.join(timeout=1.0)  # reap the corpse
            if failure is None and not slot.ready:
                code = slot.process.exitcode
                failure = (slot.generation, f"died before attaching (exit code {code})")
            if failure is not None:
                generation, text = failure
                slot.last_error = f"generation {generation}: {text}"
                self._attach_errors.append(
                    (generation, f"worker {slot.worker_id}: {text}")
                )
            slot.ready = False
            self._attach_changed.notify_all()
            if self._closed:
                return
            orphans = list(slot.outstanding.values())
            slot.outstanding.clear()
            slot.restarts += 1
            if slot.restarts <= self._max_restarts:
                self._spawn(slot)
            for task in orphans:
                if task.retried:
                    # Second crash while holding the same query: stop
                    # retrying, the query itself is the likely killer.
                    self._tasks.pop(task.task_id, None)
                    failures.append(
                        (
                            task,
                            f"worker process died twice while executing this "
                            f"query (worker {slot.worker_id})",
                        )
                    )
                    continue
                task.retried = True
                target = self._pick_slot_locked()
                if target is None:
                    self._tasks.pop(task.task_id, None)
                    failures.append(
                        (task, "all worker processes are gone; cannot retry")
                    )
                    continue
                target.outstanding[task.task_id] = task
                routed.append(
                    (target, target.connection, ("task", task.task_id, task.query_text))
                )
        # Resolve outside the lock: done-callbacks run synchronously and
        # may re-enter the service layer (admission release, stats).
        for task, reason in failures:
            _resolve(task.future, error=WorkerCrashedError(reason))
        if routed:
            # Off the watcher: a send can block on a busy worker.
            threading.Thread(target=_send_all, args=(routed,), daemon=True).start()

    # -- index hot-swap ------------------------------------------------
    def refresh_engine(self, *, timeout_seconds: float = 60.0) -> None:
        """Roll the workers onto the parent handle's current engine.

        The process-backend half of the hot-swap protocol, the attach of
        generation N:

        1. Export the (already swapped) parent engine into a **fresh**
           worker segment — the old one keeps serving untouched.
        2. Under the lock, publish the new spec/segment/generation (crash
           replacements from here on attach the new generation) and send
           a ``swap`` message down every live worker's pipe.
        3. Wait on the attach barrier start-up waits on.  A worker adopts
           by attaching, or by dying and being respawned onto the new
           generation; any attach failure of N raises.
        4. Only then remove the old segment.  On failure the old segment is
           retired instead (removed at :meth:`close`), never yanked from
           under a worker that may still be serving from it.
        """
        spec, arrays = self.handle.export_shared()
        spec = pickle.dumps(spec)
        new_segment = export_segment(arrays, self._segment_dir)
        with self._lock:
            if not self._accepting:
                new_segment.release()
                raise ServiceClosedError(
                    "the query service has been shut down; cannot swap index"
                )
            old_segment = self._segment
            self._spec, self._segment = spec, new_segment
            self._generation += 1
            target = self._generation
            swap = ("swap", target, spec, new_segment.directory)
            sends = [(slot, pipe, swap) for slot, pipe in self._pipes_locked()]
        _send_all(sends)
        try:
            self._await_attach(target, timeout_seconds, "index hot-swap failed")
        except ServiceError:
            with self._lock:
                if not self._closed:  # else close() already removed them
                    self._retired_segments.append(old_segment)
                    raise
            old_segment.release()
            raise
        old_segment.release()

    # -- introspection -------------------------------------------------
    def live_workers(self) -> int:
        with self._lock:
            return len(self._pipes_locked())

    def stats(self) -> dict:
        with self._lock:
            per_worker = [
                {
                    "worker": slot.worker_id,
                    "pid": slot.process.pid if slot.connection is not None else None,
                    "alive": slot.connection is not None,
                    "ready": slot.ready,
                    "outstanding": len(slot.outstanding),
                    "completed": slot.completed,
                    "failed": slot.failed,
                    "restarts": slot.restarts,
                    "generation": slot.generation,
                    "last_error": slot.last_error,
                }
                for slot in self._slots
            ]
            return {
                "backend": self.name,
                "configured_workers": len(self._slots),
                "live_workers": sum(row["alive"] for row in per_worker),
                "segment": self._segment.directory,
                "segment_bytes": self._segment.total_bytes,
                "index_generation": self._generation,
                "swap_errors": sum(gen >= 1 for gen, _ in self._attach_errors),
                "per_worker": per_worker,
            }

    # -- shutdown ------------------------------------------------------
    def close(self, *, drain: bool = True) -> None:
        with self._lock:
            if not self._accepting:
                return
            self._accepting = False
            outstanding = list(self._tasks.values())
        if drain and outstanding:
            # Crash replacement stays active during the drain, so a worker
            # dying here still gets its queries re-answered (or typed
            # errors) instead of hanging this join forever.
            futures_wait([task.future for task in outstanding])
        with self._lock:
            abandoned = list(self._tasks.values())
            self._tasks.clear()
            for slot in self._slots:
                slot.outstanding.clear()
        for task in abandoned:
            if not task.future.cancel():
                _resolve(
                    task.future,
                    error=ServiceClosedError(
                        "the query service shut down before this request ran"
                    ),
                )
        self._teardown()

    def _teardown(self) -> None:
        """Stop every worker, then the watcher (it returns once every pipe
        has read end-of-file), then remove every segment generation."""
        with self._lock:
            self._closed = True
            self._attach_changed.notify_all()
            live = self._pipes_locked()
        _send_all([(slot, connection, ("stop",)) for slot, connection in live])
        for slot, connection in live:
            slot.process.join(timeout=5.0)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=5.0)
            if self._watcher.ident is None:  # never started: nobody reads EOF
                connection.close()
        if self._watcher.ident is not None:
            self._watcher.join(timeout=5.0)
        self._segment.release()
        for segment in self._retired_segments:
            segment.release()
        self._retired_segments.clear()


def make_backend(
    handle: EngineHandle,
    *,
    backend: str,
    workers: int,
    timeout_seconds: float | None = None,
    segment_dir: str | None = None,
) -> ExecutionBackend:
    """Instantiate the configured execution backend."""
    if backend == "thread":
        return ThreadBackend(
            handle, workers=workers, timeout_seconds=timeout_seconds
        )
    if backend == "process":
        return ProcessBackend(
            handle,
            workers=workers,
            timeout_seconds=timeout_seconds,
            segment_dir=segment_dir,
        )
    raise ServiceError(f"unknown execution backend {backend!r}")
