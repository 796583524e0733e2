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
  opens it — fingerprint re-checked, zero-copy read-only views — and
  rebuilds an equivalent engine handle, so N workers cost one copy of the
  index plus per-worker interpreter overhead.  Worker crashes are detected
  via process sentinels; outstanding queries of a dead worker are
  resubmitted once (queries are read-only, so the retry is safe) and the
  worker is respawned.

Both backends speak the same tiny contract — ``submit(canonical_text) ->
Future[OutlierResult]`` — and produce byte-identical
``OutlierResult.to_dict()`` payloads: the process backend pickles a result
as its columns and ranked records (no ``stats``), exactly what the lossless
wire form the HTTP frontend uses is encoded from.
"""

from __future__ import annotations

import multiprocessing
import os
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

    def submit(self, query_text: str) -> "Future[OutlierResult]":
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

    def submit(self, query_text: str) -> "Future[OutlierResult]":
        future: "Future[OutlierResult]" = Future()
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "the query service has been shut down; no new requests"
                )
            self._outstanding.add(future)
        try:
            self._pool.submit(self._run, query_text, future)
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

    def _run(self, query_text: str, future: "Future[OutlierResult]") -> None:
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
            result = self.handle.execute(query_text, deadline=deadline)
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


def _attach(spec: dict, segment: str) -> EngineHandle:
    """Worker side of :func:`export_segment`: an engine over the store's views."""
    return EngineHandle.from_shared(spec, MmapArrayStore.open(segment).arrays())


def _service_worker_main(
    worker_id: int,
    spec: dict,
    segment: str,
    timeout_seconds: float | None,
    task_queue,
    result_connection,
) -> None:
    """Worker process body: attach shared index, serve queries until told to stop.

    Spawn-safe: everything arrives pickled through the process arguments;
    the CSR buffers arrive as the ``segment`` store directory and are
    mapped zero-copy.  Every task produces exactly one
    reply — ``("result", ...)`` with the lossless wire dict, or
    ``("error", ...)`` with a typed error description.

    Results travel over a **per-worker pipe**, not a shared queue, and that
    is load-bearing: a shared ``multiprocessing.Queue`` guards its pipe
    with a cross-process write lock, and a worker SIGKILLed between its
    pipe write and the lock release leaves that lock held forever — every
    other worker (and every future replacement) would then hang on its next
    reply.  With one single-writer pipe per worker, a killed worker can
    tear only its own stream, which the parent observes as a clean
    ``EOFError`` on that pipe alone.
    """
    try:
        handle = _attach(spec, segment)
    except BaseException as error:  # noqa: BLE001 - startup failure report
        try:
            result_connection.send(
                ("startup-error", worker_id, type(error).__name__, str(error))
            )
        finally:
            return
    result_connection.send(("ready", worker_id, os.getpid()))
    while True:
        message = task_queue.get()
        if message[0] == "stop":
            break
        if message[0] == "swap":
            # Index hot-swap: attach the new segment generation and rebuild
            # the handle; the old one's views unmap once it is dropped.  The
            # loop is serial, so a swap is always processed *between*
            # queries — no query ever observes a half-swapped engine, which
            # is the torn-index guarantee the chaos tests pin.
            _, generation, new_spec, new_segment = message
            try:
                new_handle = _attach(new_spec, new_segment)
            except BaseException as error:  # noqa: BLE001 - reported, then die
                try:
                    result_connection.send(
                        (
                            "swap-error",
                            worker_id,
                            generation,
                            type(error).__name__,
                            str(error),
                        )
                    )
                except (OSError, ValueError):
                    pass
                # Suicide on a failed swap: the monitor respawns this slot
                # against the *new* spec/segment, so the fleet still
                # converges on the new generation.
                break
            handle = new_handle
            result_connection.send(("swapped", worker_id, generation))
            continue
        _, task_id, query_text = message
        try:
            deadline = (
                Deadline(timeout_seconds) if timeout_seconds is not None else None
            )
            result = handle.execute(query_text, deadline=deadline)
        except BaseException as error:  # noqa: BLE001 - shipped to parent
            extras = {
                attr: getattr(error, attr)
                for attr in _ERROR_EXTRAS
                if getattr(error, attr, None) is not None
            }
            result_connection.send(
                ("error", worker_id, task_id, type(error).__name__, str(error), extras)
            )
        else:
            # Pickled as columns plus the k ranked records (``__getstate__``).
            result_connection.send(("result", worker_id, task_id, result))


@dataclass
class _Task:
    task_id: int
    query_text: str
    future: "Future[OutlierResult]"
    worker_id: int = -1
    retried: bool = False


@dataclass
class _WorkerSlot:
    worker_id: int
    process: "multiprocessing.process.BaseProcess | None" = None
    queue: "object | None" = None
    reader: "object | None" = None  # parent end of the worker's result pipe
    ready: bool = False
    dead: bool = False
    restarts: int = 0
    #: Index generation this worker's engine was built from; the swap
    #: barrier waits until every live slot reaches the target generation.
    generation: int = 0
    completed: int = 0
    failed: int = 0
    outstanding: dict[int, _Task] = field(default_factory=dict)


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
        How long to wait for all workers' ready handshakes before treating
        start-up as failed (segment is unlinked on that path).
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
        self._segment = export_segment(arrays, self._segment_dir)
        self._spec = spec
        self._lock = threading.Lock()
        self._accepting = True
        self._closed = False
        self._stop = threading.Event()
        self._next_task_id = 0
        self._tasks: dict[int, _Task] = {}
        self._startup_errors: list[str] = []
        self._generation = 0
        self._swap_errors: list[str] = []
        # Old segments a timed-out swap could not safely remove yet; they
        # are removed at close() so no generation outlives the service.
        self._retired_segments: list = []
        self._slots = [_WorkerSlot(worker_id=i) for i in range(workers)]
        self._collector = None
        try:
            for slot in self._slots:
                self._spawn(slot)
            self._collector = threading.Thread(
                target=self._collect, name="repro-serve-collector", daemon=True
            )
            self._collector.start()
            self._await_ready(start_timeout_seconds)
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-serve-monitor", daemon=True
            )
            self._monitor.start()
        except BaseException:
            # Start-up failed: tear down whatever came up and never leak
            # the worker segment.
            self._stop.set()
            for slot in self._slots:
                if slot.process is not None and slot.process.is_alive():
                    slot.process.terminate()
            for slot in self._slots:
                if slot.process is not None:
                    slot.process.join(timeout=5.0)
            if self._collector is not None:
                self._collector.join(timeout=5.0)
            for slot in self._slots:
                if slot.reader is not None:
                    slot.reader.close()
            self._segment.release()
            raise

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, slot: _WorkerSlot) -> None:
        # Fresh task queue and result pipe per (re)spawn: anything a dead
        # worker left queued or half-written dies with its channels.  The
        # spec/segment read here are the *current* ones (swapped under the
        # lock by refresh_engine), so a crash replacement mid-swap attaches
        # the new generation directly — never the torn old one.
        slot.queue = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        slot.ready = False
        slot.generation = self._generation
        slot.process = self._ctx.Process(
            target=_service_worker_main,
            args=(
                slot.worker_id,
                self._spec,
                self._segment.directory,
                self._timeout_seconds,
                slot.queue,
                writer,
            ),
            name=f"repro-serve-worker-{slot.worker_id}",
            daemon=True,
        )
        slot.process.start()
        # The child holds its own duplicate now; closing the parent's copy
        # makes the worker's death observable as EOF on ``reader``.
        writer.close()
        slot.reader = reader

    def _await_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if all(slot.ready for slot in self._slots):
                    return
                errors = list(self._startup_errors)
                dead = [
                    slot.worker_id
                    for slot in self._slots
                    if not slot.ready
                    and slot.process is not None
                    and not slot.process.is_alive()
                ]
            if errors or dead:
                detail = "; ".join(errors) if errors else f"workers {dead} died"
                raise ServiceError(
                    f"process backend failed to start: {detail}"
                )
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"process backend workers not ready within {timeout:.0f}s"
                )
            time.sleep(0.01)

    # -- submission ----------------------------------------------------
    def submit(self, query_text: str) -> "Future[OutlierResult]":
        future: "Future[OutlierResult]" = Future()
        with self._lock:
            if not self._accepting:
                raise ServiceClosedError(
                    "the query service has been shut down; no new requests"
                )
            slot = self._pick_slot_locked()
            if slot is None:
                raise ServiceError(
                    "no live worker processes (all crashed past their "
                    "restart budget); restart the service"
                )
            task = _Task(self._next_task_id, query_text, future, slot.worker_id)
            self._next_task_id += 1
            self._tasks[task.task_id] = task
            slot.outstanding[task.task_id] = task
            target_queue = slot.queue
        target_queue.put(("task", task.task_id, query_text))
        return future

    def _pick_slot_locked(self) -> _WorkerSlot | None:
        """Least-loaded live worker (caller holds the lock)."""
        live = [
            slot
            for slot in self._slots
            if not slot.dead
            and slot.process is not None
            and slot.process.is_alive()
        ]
        if not live:
            return None
        return min(live, key=lambda slot: len(slot.outstanding))

    # -- result collection ---------------------------------------------
    def _collect(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                readers = [
                    slot.reader for slot in self._slots if slot.reader is not None
                ]
            if not readers:
                self._stop.wait(0.05)
                continue
            try:
                readable = connection_wait(readers, timeout=0.1)
            except OSError:  # a reader closed mid-wait (shutdown race)
                continue
            for reader in readable:
                try:
                    message = reader.recv()
                except (EOFError, OSError):
                    # The worker died (possibly mid-send: a torn frame ends
                    # in EOF because its pipe has no other writer).  Retire
                    # this pipe; the monitor handles the respawn.
                    with self._lock:
                        for slot in self._slots:
                            if slot.reader is reader:
                                slot.reader = None
                    reader.close()
                    continue
                kind = message[0]
                if kind == "ready":
                    _, worker_id, _pid = message
                    with self._lock:
                        self._slots[worker_id].ready = True
                elif kind == "startup-error":
                    _, worker_id, type_name, text = message
                    with self._lock:
                        self._startup_errors.append(
                            f"worker {worker_id}: {type_name}: {text}"
                        )
                elif kind == "swapped":
                    _, worker_id, generation = message
                    with self._lock:
                        slot = self._slots[worker_id]
                        slot.generation = max(slot.generation, generation)
                elif kind == "swap-error":
                    _, worker_id, generation, type_name, text = message
                    with self._lock:
                        self._swap_errors.append(
                            f"worker {worker_id} (generation {generation}): "
                            f"{type_name}: {text}"
                        )
                elif kind in ("result", "error"):
                    self._deliver(message)

    def _deliver(self, message: tuple) -> None:
        kind, worker_id, task_id = message[0], message[1], message[2]
        with self._lock:
            task = self._tasks.pop(task_id, None)
            slot = self._slots[worker_id]
            slot.outstanding.pop(task_id, None)
            if task is None:
                return  # resolved by a crash-retry race; first answer stands
            if kind == "result":
                slot.completed += 1
            else:
                slot.failed += 1
        if kind == "result":
            _resolve(task.future, result=message[3])
        else:
            _resolve(
                task.future, error=_rebuild_error(message[3], message[4], message[5])
            )

    # -- crash detection -----------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            crashed: list[_WorkerSlot] = []
            with self._lock:
                if self._closed:
                    return
                for slot in self._slots:
                    if (
                        not slot.dead
                        and slot.process is not None
                        and not slot.process.is_alive()
                    ):
                        crashed.append(slot)
            for slot in crashed:
                self._replace(slot)
            self._stop.wait(0.05)

    def _replace(self, slot: _WorkerSlot) -> None:
        """Respawn a crashed worker and re-route its outstanding queries."""
        failures: list[tuple[_Task, str]] = []
        routed: list[tuple[object, _Task]] = []
        with self._lock:
            if self._closed or slot.dead:
                return
            slot.process.join(timeout=1.0)  # reap the corpse
            orphans = list(slot.outstanding.values())
            slot.outstanding.clear()
            slot.ready = False
            slot.restarts += 1
            if slot.reader is not None:
                # Retire the dead worker's result pipe (the collector sees
                # the close as EOF/OSError and moves on); the replacement
                # gets a fresh one from _spawn.
                slot.reader.close()
                slot.reader = None
            if slot.restarts > self._max_restarts:
                slot.dead = True
                slot.process = None
                slot.queue = None
            else:
                self._spawn(slot)
            retry: list[_Task] = []
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
                else:
                    task.retried = True
                    retry.append(task)
            for task in retry:
                target = self._pick_slot_locked()
                if target is None:
                    self._tasks.pop(task.task_id, None)
                    failures.append(
                        (task, "all worker processes are gone; cannot retry")
                    )
                    continue
                task.worker_id = target.worker_id
                target.outstanding[task.task_id] = task
                routed.append((target.queue, task))
        # Resolve outside the lock: done-callbacks run synchronously and
        # may re-enter the service layer (admission release, stats).
        for task, reason in failures:
            _resolve(task.future, error=WorkerCrashedError(reason))
        for target_queue, task in routed:
            target_queue.put(("task", task.task_id, task.query_text))

    # -- index hot-swap ------------------------------------------------
    def refresh_engine(self, *, timeout_seconds: float = 60.0) -> None:
        """Roll the workers onto the parent handle's current engine.

        The process-backend half of the hot-swap protocol:

        1. Export the (already swapped) parent engine into a **fresh**
           worker segment — the old one keeps serving untouched.
        2. Under the lock, publish the new spec/segment/generation (crash
           replacements from here on attach the new generation) and
           broadcast a ``swap`` message to every live worker's task queue.
        3. Wait until no live slot is below the target generation.  A
           worker adopts by ack (``swapped``), or by dying and being
           respawned against the new spec — either way the barrier clears.
        4. Only then remove the old segment.  On timeout the old segment is
           retired instead (removed at :meth:`close`), never yanked from
           under a worker that may still be serving from it.
        """
        spec, arrays = self.handle.export_shared()
        new_segment = export_segment(arrays, self._segment_dir)
        with self._lock:
            if self._closed or not self._accepting:
                new_segment.release()
                raise ServiceClosedError(
                    "the query service has been shut down; cannot swap index"
                )
            old_segment = self._segment
            self._spec = spec
            self._segment = new_segment
            self._generation += 1
            target = self._generation
            queues = [
                slot.queue
                for slot in self._slots
                if not slot.dead
                and slot.process is not None
                and slot.process.is_alive()
            ]
        for queue in queues:
            try:
                queue.put(("swap", target, spec, new_segment.directory))
            except (OSError, ValueError):
                pass  # a worker died mid-broadcast: its respawn adopts anyway
        deadline = time.monotonic() + timeout_seconds
        while True:
            with self._lock:
                if self._closed:
                    self._retired_segments.append(old_segment)
                    return
                lagging = [
                    slot.worker_id
                    for slot in self._slots
                    if not slot.dead
                    and slot.process is not None
                    and slot.generation < target
                ]
            if not lagging:
                break
            if time.monotonic() > deadline:
                self._retired_segments.append(old_segment)
                raise ServiceError(
                    f"workers {lagging} did not adopt index generation "
                    f"{target} within {timeout_seconds:.0f}s; old segment "
                    "retired for cleanup at shutdown"
                )
            time.sleep(0.01)
        old_segment.release()

    # -- introspection -------------------------------------------------
    def live_workers(self) -> int:
        with self._lock:
            return sum(
                1
                for slot in self._slots
                if not slot.dead
                and slot.process is not None
                and slot.process.is_alive()
            )

    def stats(self) -> dict:
        with self._lock:
            per_worker = [
                {
                    "worker": slot.worker_id,
                    "pid": slot.process.pid if slot.process is not None else None,
                    "alive": bool(
                        slot.process is not None and slot.process.is_alive()
                    ),
                    "ready": slot.ready,
                    "outstanding": len(slot.outstanding),
                    "completed": slot.completed,
                    "failed": slot.failed,
                    "restarts": slot.restarts,
                    "generation": slot.generation,
                }
                for slot in self._slots
            ]
            generation = self._generation
            swap_errors = len(self._swap_errors)
        return {
            "backend": self.name,
            "configured_workers": len(self._slots),
            "live_workers": self.live_workers(),
            "segment": self._segment.directory,
            "segment_bytes": self._segment.total_bytes,
            "index_generation": generation,
            "swap_errors": swap_errors,
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
            self._closed = True
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
        for slot in self._slots:
            if slot.queue is not None and slot.process is not None:
                try:
                    slot.queue.put(("stop",))
                except (OSError, ValueError):
                    pass
        for slot in self._slots:
            if slot.process is not None:
                slot.process.join(timeout=5.0)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout=5.0)
        self._stop.set()
        self._collector.join(timeout=5.0)
        self._monitor.join(timeout=5.0)
        for slot in self._slots:
            if slot.queue is not None:
                slot.queue.close()
                slot.queue.cancel_join_thread()
            if slot.reader is not None:
                slot.reader.close()
                slot.reader = None
        # Last: remove the segment — including any segment a timed-out
        # swap had to retire.
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
