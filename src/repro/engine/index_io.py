"""Persistence for pre-materialized meta-path indexes.

PM/SPM indexes are built offline (paper §6.2) and reused across sessions;
this module saves a :class:`~repro.engine.index.MetaPathIndex` to a
directory and loads it back:

* ``manifest.json`` — which meta-paths are stored, and how;
* one ``.npz`` per fully materialized meta-path (scipy CSR format);
* per partially materialized meta-path, one ``.npz`` holding the stored
  rows stacked into a matrix plus a ``.rows.npy`` with their vertex indices
  — the stacked form the index itself holds
  (:meth:`~repro.engine.index.MetaPathIndex.export_arrays`).

Writes are **atomic at file granularity**: every file is written to a
temporary sibling and renamed into place, and the manifest is written last,
so a crash mid-save leaves either the previous complete index or data files
without a manifest — never a manifest pointing at half-written data.  Loads
are **corruption-safe**: truncated or garbled files surface as a typed
:class:`~repro.exceptions.ExecutionError`, not a raw pickle/JSON/zipfile
traceback.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np
from scipy import sparse

from repro import faultinject
from repro.engine.index import MetaPathIndex
from repro.exceptions import ExecutionError
from repro.hin.storage import MmapArrayStore, csr_from_buffers
from repro.metapath.metapath import MetaPath

__all__ = ["save_index", "load_index", "load_index_mmap"]

_MANIFEST_NAME = "manifest.json"
_FORMAT_VERSION = 1

#: Exception types that signal a truncated/garbled data file rather than a
#: programming error: ``zipfile.BadZipFile`` for corrupt npz containers
#: (it subclasses ``Exception`` directly, so it needs its own entry), short
#: reads as ``EOFError``/``OSError``, bad headers/payloads as
#: ``KeyError``/``ValueError`` from numpy's format layer.
_CORRUPTION_ERRORS = (ValueError, OSError, EOFError, KeyError, zipfile.BadZipFile)


def _file_stem(position: int) -> str:
    return f"metapath_{position:04d}"


def _atomic_replace(temp_path: Path, final_path: Path) -> None:
    """Promote a fully written temp file into place (atomic on POSIX)."""
    os.replace(temp_path, final_path)


def _save_npz_atomic(target: Path, matrix: sparse.spmatrix) -> None:
    temp = target.with_name(target.name + ".tmp")
    faultinject.check("io")
    try:
        # Writing through an open handle keeps save_npz from appending its
        # own .npz suffix to the temp name.
        with open(temp, "wb") as handle:
            sparse.save_npz(handle, matrix)
        _atomic_replace(temp, target)
    finally:
        if temp.exists():  # pragma: no cover - crash-path cleanup
            temp.unlink()


def _save_npy_atomic(target: Path, array: np.ndarray) -> None:
    temp = target.with_name(target.name + ".tmp")
    faultinject.check("io")
    try:
        with open(temp, "wb") as handle:
            np.save(handle, array)
        _atomic_replace(temp, target)
    finally:
        if temp.exists():  # pragma: no cover - crash-path cleanup
            temp.unlink()


def save_index(index: MetaPathIndex, directory: str | Path) -> None:
    """Write ``index`` into ``directory`` (created if needed).

    Data files are written first (each atomically), the manifest last, so
    an interrupted save never yields a manifest referencing missing or
    partial files.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"format_version": _FORMAT_VERSION, "full": [], "partial": []}

    exported, arrays = index.export_arrays()
    for position, entry in enumerate(exported["entries"]):
        stem, prefix = _file_stem(position), entry["prefix"]
        matrix = csr_from_buffers(
            arrays[f"{prefix}:data"],
            arrays[f"{prefix}:indices"],
            arrays[f"{prefix}:indptr"],
            entry["shape"],
        )
        _save_npz_atomic(target / f"{stem}.npz", matrix)
        path = MetaPath(tuple(entry["types"]))
        saved = {"path": str(path), "file": f"{stem}.npz"}
        if entry["kind"] == "partial":
            saved["rows_file"] = f"{stem}.rows.npy"
            _save_npy_atomic(
                target / saved["rows_file"], arrays[f"{prefix}:vertices"]
            )
        manifest[entry["kind"]].append(saved)

    manifest_temp = target / (_MANIFEST_NAME + ".tmp")
    faultinject.check("io")
    manifest_temp.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    _atomic_replace(manifest_temp, target / _MANIFEST_NAME)


def _load_manifest(manifest_path: Path) -> dict:
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        raise ExecutionError(
            f"corrupt index manifest at {manifest_path}: {error}"
        ) from error
    if not isinstance(manifest, dict):
        raise ExecutionError(
            f"corrupt index manifest at {manifest_path}: expected an object, "
            f"got {type(manifest).__name__}"
        )
    return manifest


def _load_npz(data_path: Path) -> sparse.csr_matrix:
    faultinject.check("io")
    try:
        return sparse.load_npz(data_path)
    except _CORRUPTION_ERRORS as error:
        raise ExecutionError(
            f"corrupt or truncated index data file {data_path}: {error}"
        ) from error


def _load_rows(rows_path: Path) -> np.ndarray:
    faultinject.check("io")
    try:
        # allow_pickle stays False (numpy's default): row indices are plain
        # int64 arrays, and refusing pickles keeps corrupt/hostile files
        # from executing code at load time.
        return np.load(rows_path)
    except _CORRUPTION_ERRORS as error:
        raise ExecutionError(
            f"corrupt or truncated index rows file {rows_path}: {error}"
        ) from error


def load_index(directory: str | Path) -> MetaPathIndex:
    """Load an index previously written by :func:`save_index`.

    Raises
    ------
    ExecutionError
        On a missing or incompatible manifest, missing data files, or
        truncated/corrupt data files (no raw ``json``/``zipfile``/pickle
        tracebacks escape).
    """
    source = Path(directory)
    manifest_path = source / _MANIFEST_NAME
    if not manifest_path.exists():
        raise ExecutionError(f"no index manifest at {manifest_path}")
    manifest = _load_manifest(manifest_path)
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise ExecutionError(f"unsupported index format version: {version!r}")

    index = MetaPathIndex()
    try:
        full_entries = list(manifest.get("full", []))
        partial_entries = list(manifest.get("partial", []))
        for entry in full_entries + partial_entries:
            entry["path"]  # noqa: B018 - validate required keys up front
            entry["file"]
    except (TypeError, KeyError) as error:
        raise ExecutionError(
            f"corrupt index manifest at {manifest_path}: {error!r}"
        ) from error

    for entry in full_entries:
        data_path = source / entry["file"]
        if not data_path.exists():
            raise ExecutionError(f"index data file missing: {data_path}")
        index.store_full(MetaPath.parse(entry["path"]), _load_npz(data_path))
    for entry in partial_entries:
        data_path = source / entry["file"]
        rows_path = source / entry.get("rows_file", "")
        if not data_path.exists() or not rows_path.exists():
            raise ExecutionError(
                f"index data files missing for {entry['path']!r}"
            )
        stacked = _load_npz(data_path).tocsr()
        vertex_indices = _load_rows(rows_path)
        if stacked.shape[0] != len(vertex_indices):
            raise ExecutionError(
                f"corrupt partial index for {entry['path']!r}: "
                f"{stacked.shape[0]} rows vs {len(vertex_indices)} indices"
            )
        index.store_rows(MetaPath.parse(entry["path"]), vertex_indices, stacked)
    return index


def load_index_mmap(directory: str | Path) -> MetaPathIndex:
    """Attach an index a builder published into an array store, zero-copy.

    Given a ``store``, :func:`repro.engine.index.build_pm_index` and
    :func:`~repro.engine.index.build_spm_index` place their CSR buffers in
    a :class:`repro.hin.storage.MmapArrayStore` and commit its manifest
    **last** — the same write-data-then-manifest discipline as
    :func:`save_index`.  This loader therefore sees either a complete
    published index or nothing: a directory holding only the data files of
    an interrupted build raises a typed error, never a partial index.

    The returned index reads the on-disk files directly through read-only
    ``np.memmap`` views (no load-time copy).

    Raises
    ------
    ExecutionError
        When no committed manifest exists, or the manifest/data are
        inconsistent.
    """
    store = MmapArrayStore.open(directory)
    manifest = store.extra.get("index")
    if not isinstance(manifest, dict) or "entries" not in manifest:
        raise ExecutionError(
            f"array store at {directory} holds no published index manifest"
        )
    try:
        return MetaPathIndex.from_arrays(manifest, store.arrays())
    except (KeyError, TypeError, ValueError) as error:
        raise ExecutionError(
            f"corrupt out-of-core index at {directory}: {error!r}"
        ) from error
