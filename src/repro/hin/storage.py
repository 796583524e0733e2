"""The ``np.memmap``-backed array store behind the HIN's mmap tier.

Everything above this module (adjacency matrices, PM/SPM index buffers)
stores flat numpy arrays.  At AMiner scale (millions of vertices, 10⁸+
non-zeros) those buffers no longer fit comfortably in RAM, so the network
and index grow a ``storage={ram,mmap}`` switch.  ``"ram"`` keeps plain heap
arrays and needs no store; ``"mmap"`` puts them in a
:class:`MmapArrayStore` — one raw little-endian binary file per array in a
directory, reopened as **read-only** ``np.memmap`` views.  The kernel pages
data in on demand and evicts it under pressure, so resident memory tracks
the working set instead of the total index size.

Writes never go through a writable memmap: spilling dirties pages that
count against RSS until the kernel writes them back.  Instead arrays are
written with buffered file I/O (in bounded chunks, so a spill of a 10 GB
buffer needs ~16 MB of transient heap) and then reopened ``mode="r"``.

The mmap store is also the repository's one on-disk array format: the
out-of-core index builders, :func:`repro.engine.index_io.save_index` and
the process backend's worker segments (under ``/dev/shm`` on the RAM tier,
where the store is shared memory) all write it.  Data files
carry no meaning until :meth:`~MmapArrayStore.commit` writes
``manifest.json`` (to a temp sibling, then ``os.replace``) with a content
:func:`fingerprint`.  :meth:`MmapArrayStore.open` refuses a directory
without a committed manifest, or whose files no longer match it, so an
interrupted build is invisible, never half-loaded.  New files never reuse a
name on disk, and the files a commit supersedes are deleted only after its
manifest lands, so re-publishing into a directory keeps the previous
contents loadable until the new ones are.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse

from repro import faultinject
from repro.exceptions import ExecutionError

__all__ = [
    "MmapArrayStore",
    "fingerprint",
    "spill_csr",
    "STORAGE_MODES",
]

#: Recognized values of every ``storage=`` switch in the HIN/engine layers.
STORAGE_MODES = ("ram", "mmap")

_MANIFEST_NAME = "manifest.json"
#: 2: the manifest carries a fingerprint.  Version 1 was the unfingerprinted
#: store and the retired scipy-archive index layout; both are refused as
#: unsupported.
_FORMAT_VERSION = 2

#: Spill chunk size: bounds the transient heap used while writing one array
#: out (and while copying one back in), independent of the array's size.
_CHUNK_BYTES = 16 << 20

#: Bytes of head/tail content hashed per array.  Hashing whole gigabyte
#: buffers on every attach would dominate start-up; shape + dtype + nbytes +
#: boundary bytes catches the realistic failure modes (wrong store, torn
#: write, stale manifest) at O(1) cost per array.
_DIGEST_SPAN = 1024


def fingerprint(arrays: Mapping[str, np.ndarray]) -> str:
    """Content fingerprint over array layout plus boundary bytes, in key order."""
    digest = hashlib.blake2b(digest_size=16)
    for key, array in arrays.items():
        view = np.ascontiguousarray(array)
        digest.update(key.encode())
        digest.update(view.dtype.str.encode())
        digest.update(repr(view.shape).encode())
        digest.update(int(view.nbytes).to_bytes(8, "little"))
        # Head and tail spans, without materializing the whole buffer.
        buffer = view.view(np.uint8).reshape(-1)
        digest.update(buffer[:_DIGEST_SPAN].tobytes())
        if buffer.size > _DIGEST_SPAN:
            digest.update(buffer[-_DIGEST_SPAN:].tobytes())
    return digest.hexdigest()


def _read_manifest(path: Path) -> dict:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        raise ExecutionError(
            f"corrupt array-store manifest at {path}: {error}"
        ) from error
    if not isinstance(manifest, dict):
        raise ExecutionError(
            f"corrupt array-store manifest at {path}: expected an object, "
            f"got {type(manifest).__name__}"
        )
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise ExecutionError(
            f"unsupported array-store format version {version!r} at {path} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    return manifest


def _bare_name(name: object) -> str:
    """A manifest's ``"file"`` entry, refused unless it names a file in place."""
    if not isinstance(name, str) or name in ("", ".", "..") or (
        os.path.basename(name) != name
    ):
        raise ExecutionError(
            f"array-store manifest names {name!r}, which is not a bare file "
            "name inside the store directory"
        )
    return name


def _published_files(directory: Path) -> set[str]:
    """Files the directory's committed manifest references (none if unreadable)."""
    try:
        entries = _read_manifest(directory / _MANIFEST_NAME)["arrays"].values()
        return {_bare_name(entry["file"]) for entry in entries}
    except (ExecutionError, KeyError, TypeError, AttributeError):
        return set()


def _discard(directory: Path, names: Iterable[str]) -> None:
    """Best-effort unlink; live memmaps keep reading an unlinked inode."""
    for name in list(names):
        try:
            (directory / name).unlink()
        except OSError:
            pass


def _require_1d(array: np.ndarray, key: str) -> np.ndarray:
    flat = np.ascontiguousarray(array)
    if flat.ndim != 1:
        raise ExecutionError(
            f"array store holds flat 1-D buffers; {key!r} has shape {flat.shape}"
        )
    return flat


class _MmapAppender:
    """Incremental writer for one array: ``append`` chunks, then ``finalize``.

    The out-of-core index builder streams block products through this —
    each completed row block is appended and released, so peak memory is
    one block, not one matrix.
    """

    __slots__ = ("_store", "_key", "_dtype", "_path", "_handle", "_count")

    def __init__(
        self, store: "MmapArrayStore", key: str, dtype: np.dtype, path: Path
    ) -> None:
        self._store = store
        self._key = key
        self._dtype = np.dtype(dtype)
        self._path = path
        self._handle = open(path, "wb")
        self._count = 0

    def append(self, chunk: np.ndarray) -> None:
        flat = _require_1d(chunk, self._key).astype(self._dtype, copy=False)
        step = max(1, _CHUNK_BYTES // max(1, flat.itemsize))
        for start in range(0, flat.size, step):
            # Slice-then-tobytes keeps the transient copy one chunk wide no
            # matter how large the source array is.
            self._handle.write(flat[start:start + step].tobytes())
        self._count += flat.size

    def finalize(self) -> np.ndarray:
        self._handle.close()
        return self._store._register(
            self._key, self._path, self._dtype, (self._count,)
        )


class MmapArrayStore:
    """Directory of raw binary array files reopened as read-only memmaps.

    Parameters
    ----------
    directory:
        Where array files live.  ``None`` creates a private temporary
        directory that is removed when the store is garbage-collected (the
        ephemeral case: an mmap-tier network whose adjacency should not
        outlive the process).  In an explicit directory what :meth:`commit`
        published stays on disk — the persistent case, paired with
        :meth:`open` — while files this store wrote and never committed are
        removed with the store: without a manifest they mean nothing.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self._tempdir: tempfile.TemporaryDirectory | None = None
        if directory is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-mmap-")
            directory = self._tempdir.name
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        # key -> (file name, dtype, shape).  File names are sequential so
        # arbitrary key strings (they contain ':') never fight the
        # filesystem, and a re-put never clobbers a file a live memmap
        # still reads.
        self._entries: dict[str, tuple[str, np.dtype, tuple[int, ...]]] = {}
        self._views: dict[str, np.ndarray] = {}
        self._extra: dict = {}
        self._sequence = 0
        # Files the on-disk manifest references (kept until a commit
        # supersedes them) and files written since the last commit (removed
        # with the store; mutated in place, the finalizer holds the set).
        self._published: set[str] = set()
        self._scratch: set[str] = set()
        weakref.finalize(self, _discard, self._directory, self._scratch)

    # ------------------------------------------------------------------
    # Construction from a committed directory
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory: str | Path) -> "MmapArrayStore":
        """Attach to a directory previously published with :meth:`commit`.

        Raises
        ------
        ExecutionError
            When no committed manifest exists (e.g. an interrupted build
            left only data files), the manifest is of another format or
            names a file outside the directory, or the data files no longer
            match it (size or fingerprint).
        """
        root = Path(directory)
        manifest_path = root / _MANIFEST_NAME
        if not manifest_path.exists():
            raise ExecutionError(
                f"no committed array-store manifest at {manifest_path} — "
                "the store was never published (or a build was interrupted)"
            )
        manifest = _read_manifest(manifest_path)
        store = cls(root)
        try:
            for key, entry in manifest["arrays"].items():
                file_path = root / _bare_name(entry["file"])
                dtype = np.dtype(entry["dtype"])
                shape = tuple(int(s) for s in entry["shape"])
                expected = int(np.prod(shape)) * dtype.itemsize if shape else 0
                if shape and shape[0]:
                    if not file_path.exists():
                        raise ExecutionError(
                            f"array-store data file missing: {file_path}"
                        )
                    size = file_path.stat().st_size
                    if size != expected:
                        raise ExecutionError(
                            f"corrupt or truncated array-store data file "
                            f"{file_path}: {size} bytes, expected {expected}"
                        )
                store._entries[key] = (file_path.name, dtype, shape)
            store._extra = dict(manifest.get("extra", {}))
            recorded = manifest["fingerprint"]
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ExecutionError(
                f"corrupt array-store manifest at {manifest_path}: {error!r}"
            ) from error
        store._published = {name for name, _, _ in store._entries.values()}
        if fingerprint(store.arrays()) != recorded:
            raise ExecutionError(
                f"array store at {root} failed its fingerprint check; "
                "refusing a torn, tampered or mismatched store"
            )
        return store

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    def _next_file(self) -> Path:
        # Never reuse a name on disk: a committed manifest (the index a
        # rebuild is replacing) may still reference it.
        while True:
            path = self._directory / f"array_{self._sequence:05d}.bin"
            self._sequence += 1
            if not path.exists():
                self._scratch.add(path.name)
                return path

    def _register(
        self, key: str, path: Path, dtype: np.dtype, shape: tuple[int, ...]
    ) -> np.ndarray:
        previous = self._entries.get(key)
        self._entries[key] = (path.name, dtype, shape)
        self._views.pop(key, None)
        if previous is not None and previous[0] not in self._published:
            # A re-put (e.g. an adjacency rebuild after mutation) retires
            # the old file; a published one waits for the next commit.
            self._scratch.discard(previous[0])
            _discard(self._directory, [previous[0]])
        return self.get(key)

    def put(self, key: str, array: np.ndarray) -> np.ndarray:
        flat = _require_1d(array, key)
        appender = self.appender(key, flat.dtype)
        appender.append(flat)
        return appender.finalize()

    def appender(self, key: str, dtype: np.dtype) -> _MmapAppender:
        faultinject.check("io")
        return _MmapAppender(self, key, np.dtype(dtype), self._next_file())

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, key: str) -> np.ndarray:
        view = self._views.get(key)
        if view is not None:
            return view
        entry = self._entries.get(key)
        if entry is None:
            raise ExecutionError(f"array store has no array named {key!r}")
        file_name, dtype, shape = entry
        if not shape or shape[0] == 0:
            view = np.empty(shape or (0,), dtype=dtype)
        else:
            view = np.memmap(
                self._directory / file_name, dtype=dtype, mode="r", shape=shape
            )
        self._views[key] = view
        return view

    def keys(self) -> list[str]:
        return list(self._entries)

    def arrays(self) -> dict[str, np.ndarray]:
        """The full ``key -> array`` map (views, not copies)."""
        return {key: self.get(key) for key in self.keys()}

    def close(self) -> None:
        """Drop this store's views; their pages unmap once no array uses them."""
        self._views.clear()

    # ------------------------------------------------------------------
    # Atomic publish
    # ------------------------------------------------------------------
    @property
    def extra(self) -> dict:
        """Application payload recorded at :meth:`commit` time."""
        return self._extra

    def commit(self, extra: Mapping | None = None) -> None:
        """Publish the store: write ``manifest.json`` atomically, last.

        Until this runs, :meth:`open` refuses the directory — data files
        written by an interrupted build are invisible, and a manifest an
        earlier commit left keeps serving.  The files it referenced and this
        one does not are deleted after the new manifest lands.  Goes through
        the ``io`` fault point like every array write.
        """
        self._extra = dict(extra or {})
        files = {file_name for file_name, _, _ in self._entries.values()}
        manifest = {
            "format_version": _FORMAT_VERSION,
            "arrays": {
                key: {
                    "file": file_name,
                    "dtype": np.dtype(dtype).str,
                    "shape": [int(s) for s in shape],
                }
                for key, (file_name, dtype, shape) in self._entries.items()
            },
            "fingerprint": fingerprint(self.arrays()),
            "extra": self._extra,
        }
        superseded = _published_files(self._directory) - files
        faultinject.check("io")
        temp = self._directory / (_MANIFEST_NAME + ".tmp")
        temp.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        os.replace(temp, self._directory / _MANIFEST_NAME)
        self._published = files
        self._scratch.clear()
        _discard(self._directory, superseded)


def spill_csr(
    store: MmapArrayStore, prefix: str, matrix: sparse.csr_matrix
) -> sparse.csr_matrix:
    """Move a CSR matrix's buffers into ``store``; returns the store-backed view.

    The matrix is canonicalized first (sorted, duplicate-free) so the
    returned view can be flagged canonical — scipy must never attempt an
    in-place ``sort_indices`` on a read-only memmap.
    """
    csr = matrix.tocsr()
    csr.sum_duplicates()
    csr.sort_indices()
    data = store.put(f"{prefix}:data", csr.data)
    indices = store.put(f"{prefix}:indices", csr.indices)
    indptr = store.put(f"{prefix}:indptr", csr.indptr)
    return csr_from_buffers(data, indices, indptr, csr.shape)


def csr_from_buffers(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: Iterable[int],
) -> sparse.csr_matrix:
    """Adopt pre-canonical buffers as a CSR matrix without copying.

    Used for store-backed (memmap) buffers, worker segments included; the
    canonical flags are set up front because the buffers may be read-only.
    """
    matrix = sparse.csr_matrix(tuple(int(s) for s in shape), dtype=data.dtype)
    matrix.data, matrix.indices, matrix.indptr = data, indices, indptr
    matrix.has_sorted_indices = True
    matrix.has_canonical_format = True
    return matrix


def is_store_backed(matrix: sparse.spmatrix) -> bool:
    """True when a matrix's buffers already live in a memmap store."""
    return sparse.issparse(matrix) and isinstance(
        getattr(matrix, "data", None), np.memmap
    )
