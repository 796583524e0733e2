"""Persistence for pre-materialized meta-path indexes.

PM/SPM indexes are built offline (paper §6.2) and reused across sessions.
An index on disk is a committed :class:`~repro.hin.storage.MmapArrayStore`
directory: one raw file per CSR buffer of
:meth:`~repro.engine.index.MetaPathIndex.export_arrays`, and a
``manifest.json`` carrying the array layout, a content fingerprint and the
index's own manifest under ``extra["index"]``.  The out-of-core builders
(:func:`~repro.engine.index.build_pm_index` /
:func:`~repro.engine.index.build_spm_index` given a ``store``) publish the
same layout, so :func:`load_index` reads both.

The store's discipline makes saves **crash-safe**: data files first, the
manifest last, files of a previous save deleted only after the new manifest
lands — an interrupted save leaves the previous index (or no index) loadable,
never a manifest pointing at half-written data.  Loads are **corruption-
safe**: a missing, truncated, tampered or foreign-format directory surfaces
as a typed :class:`~repro.exceptions.ExecutionError`.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.index import MetaPathIndex
from repro.exceptions import ExecutionError
from repro.hin.storage import MmapArrayStore

__all__ = ["save_index", "load_index"]


def save_index(index: MetaPathIndex, directory: str | Path) -> None:
    """Write ``index`` into ``directory`` (created if needed) and commit it."""
    manifest, arrays = index.export_arrays()
    store = MmapArrayStore(directory)
    for key, array in arrays.items():
        store.put(key, array)
    store.commit({"index": manifest})


def load_index(directory: str | Path) -> MetaPathIndex:
    """Attach an index published into ``directory``, zero-copy.

    The returned index reads the on-disk files through read-only
    ``np.memmap`` views (no load-time copy).

    Raises
    ------
    ExecutionError
        When no committed manifest exists, the directory holds another
        format (including the retired scipy-archive layout), or the
        manifest and data are inconsistent.
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
        raise ExecutionError(f"corrupt index at {directory}: {error!r}") from error
