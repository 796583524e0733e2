"""Zero-copy shared-memory transport for warmed CSR arrays.

The process backend (:mod:`repro.service.backends`) must give every worker
process the same multi-hundred-megabyte adjacency and PM/SPM index matrices
without N copies of them.  This module implements the flat-buffer layer that
makes that possible:

* :func:`export_arrays` packs a set of named numpy arrays into **one**
  ``multiprocessing.shared_memory`` segment (64-byte-aligned slots) and
  returns an owner handle plus a picklable :class:`SegmentManifest`
  describing every array's dtype, shape, and offset.
* :func:`attach_arrays` maps that segment inside a worker process and
  rebuilds the arrays as **views** over the shared buffer — zero bytes
  copied, marked read-only so an accidental in-place mutation fails loudly
  instead of corrupting every other worker.
* A content fingerprint (:func:`repro.hin.storage.fingerprint`, the one
  the array store records) travels with the manifest and is recomputed on
  attach, so a torn, stale, or mismatched segment is rejected before the
  engine ever multiplies through it.

The mmap tier does not use this module: its worker segments are committed
:class:`~repro.hin.storage.MmapArrayStore` directories (see
:mod:`repro.service.backends`).

Lifecycle: the parent owns the segment (create → close+unlink); workers
only ever ``close`` their mapping.  :func:`active_segments` tracks segments
this process created and has not yet unlinked — the cleanup regression
tests assert it drains to empty on every path, including error paths.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping

import numpy as np

from repro.exceptions import ServiceError
from repro.hin.storage import fingerprint

__all__ = [
    "ArraySpec",
    "SegmentManifest",
    "SharedArraySegment",
    "active_segments",
    "attach_arrays",
    "export_arrays",
]

#: Slot alignment inside the segment; 64 bytes keeps every array on its own
#: cache line and satisfies any SIMD alignment numpy/scipy could want.
_ALIGN = 64

# Segments created (and not yet unlinked) by this process, for leak checks.
_ACTIVE: set[str] = set()
_ACTIVE_LOCK = threading.Lock()


def active_segments() -> set[str]:
    """Names of shared-memory segments this process currently owns."""
    with _ACTIVE_LOCK:
        return set(_ACTIVE)


@dataclass(frozen=True)
class ArraySpec:
    """Location and layout of one array inside a shared segment."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int


@dataclass(frozen=True)
class SegmentManifest:
    """Everything a worker needs to reattach a segment (picklable)."""

    segment: str
    total_bytes: int
    arrays: tuple[ArraySpec, ...]
    fingerprint: str


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedArraySegment:
    """Owner-side handle of one exported segment.

    ``release()`` drops this process's mapping and removes the segment from
    the OS (idempotent).  The parent service calls it on shutdown — workers
    only ever close their own mapping.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, manifest: SegmentManifest
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self._unlinked = False

    @property
    def name(self) -> str:
        return self.manifest.segment

    @property
    def total_bytes(self) -> int:
        return self.manifest.total_bytes

    def release(self) -> None:
        try:
            self._shm.close()
        except Exception:  # pragma: no cover - platform-specific double close
            pass
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        finally:
            with _ACTIVE_LOCK:
                _ACTIVE.discard(self.manifest.segment)


def _layout(arrays: Mapping[str, np.ndarray]) -> tuple[list[ArraySpec], dict[str, np.ndarray], int]:
    """Assign every array an aligned slot; returns (specs, contiguous, total)."""
    specs: list[ArraySpec] = []
    offset = 0
    contiguous: dict[str, np.ndarray] = {}
    for key, array in arrays.items():
        view = np.ascontiguousarray(array)
        contiguous[key] = view
        offset = _aligned(offset)
        specs.append(
            ArraySpec(
                key=key,
                dtype=view.dtype.str,
                shape=tuple(int(s) for s in view.shape),
                offset=offset,
                nbytes=int(view.nbytes),
            )
        )
        offset += int(view.nbytes)
    return specs, contiguous, max(offset, 1)  # zero-byte segments are not creatable


def _views(specs, buffer) -> dict[str, np.ndarray]:
    """Zero-copy arrays over ``buffer`` at the slots ``specs`` assign."""
    return {
        spec.key: np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=buffer, offset=spec.offset
        )
        for spec in specs
    }


def export_arrays(
    arrays: Mapping[str, np.ndarray], *, name_hint: str = "repro"
) -> SharedArraySegment:
    """Pack ``arrays`` into one new ``multiprocessing.shared_memory`` segment.

    Arrays are copied once (parent → segment); the returned manifest lets
    any process rebuild zero-copy views with :func:`attach_arrays`.  Keys
    are preserved; iteration order determines layout, so the fingerprint is
    deterministic for a deterministic input mapping.
    """
    specs, contiguous, total = _layout(arrays)
    name = f"{name_hint}-{secrets.token_hex(6)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=total)
    with _ACTIVE_LOCK:
        _ACTIVE.add(shm.name)
    try:
        views = _views(specs, shm.buf)
        for key, view in views.items():
            view[...] = contiguous[key]
        manifest = SegmentManifest(
            segment=shm.name,
            total_bytes=total,
            arrays=tuple(specs),
            fingerprint=fingerprint(views),
        )
    except BaseException:
        # Creation failed mid-copy: never leak the segment.
        shm.close()
        shm.unlink()
        with _ACTIVE_LOCK:
            _ACTIVE.discard(name)
        raise
    return SharedArraySegment(shm, manifest)


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach ``shm`` from the resource tracker when it would over-clean.

    Python < 3.13 registers every *attached* segment with a resource
    tracker, and a tracker unlinks everything still registered when it
    shuts down.  Which tracker matters:

    * ``multiprocessing`` children inherit the parent's tracker — their
      attach-register is a set no-op and their exit unlinks nothing, so
      unregistering here would instead erase the *owner's* registration.
      Skip.
    * A process that started its **own** tracker (``_pid`` set) would
      unlink the shared segment when it exits — destroying data the owner
      still serves.  Unregister the attachment so only the owner's
      ``unlink()`` removes the segment.  (3.13+ exposes ``track=False``
      for exactly this; this keeps 3.10–3.12 correct.)
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is None or getattr(tracker, "_pid", None) is None:
        return  # inherited (or no) tracker: registration belongs to the owner
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    except Exception:  # pragma: no cover - tracker not running / renamed API
        pass


def attach_arrays(
    manifest: SegmentManifest, *, verify: bool = True
) -> tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]:
    """Map an exported segment and rebuild read-only zero-copy views.

    Raises
    ------
    ServiceError
        When the segment cannot be found or its content fingerprint does
        not match the manifest (stale or torn export).
    """
    try:
        shm = shared_memory.SharedMemory(name=manifest.segment)
    except FileNotFoundError as error:
        raise ServiceError(
            f"shared-memory segment {manifest.segment!r} is gone; was the "
            "service closed while workers were starting?"
        ) from error
    # Workers must detach from the resource tracker (it would unlink on
    # their exit); the owner process attaching to its *own* segment must
    # not, or the create-time registration would be dropped twice.
    with _ACTIVE_LOCK:
        owner = manifest.segment in _ACTIVE
    if not owner:
        _untrack(shm)
    views = _views(manifest.arrays, shm.buf)
    for view in views.values():
        view.flags.writeable = False
    if verify:
        observed = fingerprint(views)
        if observed != manifest.fingerprint:
            shm.close()
            raise ServiceError(
                f"shared-memory segment {manifest.segment!r} failed its "
                f"fingerprint check ({observed} != {manifest.fingerprint}); "
                "refusing to serve from a torn or mismatched index"
            )
    return shm, views
