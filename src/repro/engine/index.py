"""Pre-materialized length-2 meta-path indexes (paper Section 6.2).

The index is one row store.  Per length-2 meta-path ``P`` it holds either

* the **full** count matrix ``M_P`` — every vertex's row is stored, or
* a **partial** store — the rows ``φ_P(v)`` of a selected vertex subset
  stacked into one CSR matrix, the vertex array naming each stacked row,
  and the inverse array (vertex index -> stacked row, ``-1`` when absent),

or nothing.  Which vertices have a row — the *coverage* — is all that
separates the paper's PM (every vertex), SPM (some) and unindexed baseline
(none); the strategy layer reads it through
:meth:`MetaPathIndex.coverage_mask` and :meth:`MetaPathIndex.gather_rows`.
The stacked form is also the one every transport uses
(:meth:`MetaPathIndex.export_arrays`, :mod:`repro.engine.index_io`, the
process backend's worker segments), so attaching an index never builds
per-row Python objects.

:class:`LazyPMIndex` is the PM index a server holds: it covers every legal
length-2 path like the eager :func:`build_pm_index`, but forms each matrix
on its first read, from the adjacency operands of its build version.  The
library (``PMStrategy(index=None)``, Figures 3-5, ``save_index``) stays
eager.

Index size is accounted in bytes under a conventional CSR storage model
(8-byte values, 4-byte column indices, 8-byte row pointers) — the quantity
Figure 5(b) reports.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Iterable, NamedTuple

import numpy as np
from scipy import sparse

from repro import faultinject
from repro.engine.deadline import check_deadline
from repro.exceptions import ExecutionError
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.hin.storage import MmapArrayStore, csr_from_buffers, spill_csr
from repro.metapath.materialize import materialize
from repro.metapath.metapath import MetaPath
from repro.utils.sparsetools import (
    INDEX_BYTES,
    POINTER_BYTES,
    VALUE_BYTES,
    csr_storage_bytes,
)

__all__ = [
    "MetaPathIndex",
    "LazyPMIndex",
    "build_pm_index",
    "build_spm_index",
    "DEFAULT_BUILD_BLOCK_ROWS",
    "estimate_product_nnz",
]

_log = logging.getLogger(__name__)

#: Default row-block width of the index builders: large enough that
#: per-block Python overhead vanishes against the sparse products, small
#: enough that one block of a dense-ish product stays tens of MB.
DEFAULT_BUILD_BLOCK_ROWS = 8192


class _PartialRows(NamedTuple):
    """The stored rows of one partially covered meta-path."""

    #: Row ``i`` is ``φ_path(vertices[i])``; canonical CSR.
    stacked: sparse.csr_matrix
    vertices: np.ndarray
    #: Vertex index -> row of ``stacked``, ``-1`` when the vertex has none.
    inverse: np.ndarray


_NO_ROWS = _PartialRows(
    sparse.csr_matrix((0, 0), dtype=np.float64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)


def _all_within(values: np.ndarray, limit: int) -> bool:
    """Whether every value lies in ``[0, limit)`` (vacuously for none)."""
    return values.size == 0 or bool(values.min() >= 0 and values.max() < limit)


class MetaPathIndex:
    """Row-retrievable store of pre-materialized meta-path count matrices.

    The strategy layer asks which vertices are covered
    (:meth:`coverage_mask`) and gathers their rows (:meth:`gather_rows`);
    what to do about an uncovered vertex is the strategy's decision.
    """

    def __init__(self) -> None:
        self._full: dict[MetaPath, sparse.csr_matrix] = {}
        self._partial: dict[MetaPath, _PartialRows] = {}
        # Lazily-built per-path boolean coverage masks (vertex index ->
        # stored?), keyed by (path, width).  Invalidated on store calls.
        self._coverage: dict[tuple[MetaPath, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def store_full(self, path: MetaPath, matrix: sparse.csr_matrix) -> None:
        """Store the complete count matrix of ``path``."""
        self._full[path] = matrix.tocsr()
        # A full matrix supersedes any partial rows for the same path.
        self._partial.pop(path, None)
        self._invalidate_coverage(path)

    def store_rows(
        self,
        path: MetaPath,
        vertices: "np.ndarray | list[int]",
        stacked: sparse.spmatrix,
    ) -> None:
        """Store the rows of ``path`` for ``vertices`` (SPM-style coverage).

        Row ``i`` of ``stacked`` is ``φ_path(vertices[i])``; the call
        replaces whatever rows ``path`` held.  Buffers that are already
        canonical (sorted, duplicate-free) and flagged so — every transport
        hands those in, possibly as read-only shared or file-backed pages —
        are adopted without a copy.
        """
        if path in self._full:
            raise ExecutionError(
                f"meta-path {path} already has a full matrix; refusing to "
                "shadow it with partial rows"
            )
        csr = stacked.tocsr()
        if not csr.has_canonical_format:
            csr.sum_duplicates()
        stored = np.asarray(vertices, dtype=np.int64)
        if stored.ndim != 1 or csr.shape[0] != stored.size:
            raise ExecutionError(
                f"stacked rows for {path} have shape {csr.shape} but "
                f"{stored.size} vertex indices were given"
            )
        if stored.size and stored.min() < 0:
            raise ExecutionError(f"negative vertex index for {path}")
        slots = np.arange(stored.size, dtype=np.int64)
        inverse = np.full(
            int(stored.max()) + 1 if stored.size else 0, -1, dtype=np.int64
        )
        inverse[stored] = slots
        if not np.array_equal(inverse[stored], slots):
            raise ExecutionError(f"duplicate vertex index for {path}")
        self._partial[path] = _PartialRows(csr, stored, inverse)
        self._invalidate_coverage(path)

    def _invalidate_coverage(self, path: MetaPath) -> None:
        for key in [key for key in self._coverage if key[0] == path]:
            del self._coverage[key]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def full_matrix(self, path: MetaPath) -> sparse.csr_matrix | None:
        """The complete matrix for ``path`` when fully materialized."""
        return self._full.get(path)

    def has_row(self, path: MetaPath, vertex_index: int) -> bool:
        """Whether ``φ_path(vertex)`` is stored."""
        full = self._full.get(path)
        if full is not None:
            return 0 <= vertex_index < full.shape[0]
        partial = self._partial.get(path)
        return (
            partial is not None
            and 0 <= vertex_index < partial.inverse.size
            and bool(partial.inverse[vertex_index] >= 0)
        )

    def coverage_mask(self, path: MetaPath, width: int) -> np.ndarray | None:
        """Boolean coverage lookup table for ``path`` over ``width`` vertices.

        ``mask[i]`` is True exactly when vertex ``i`` has a stored row;
        ``None`` means a full matrix covers every in-range vertex.  The mask
        is cached until the next store, so block partitioning costs one
        O(block) fancy index instead of a per-block membership sort.
        """
        if path in self._full:
            return None
        key = (path, width)
        mask = self._coverage.get(key)
        if mask is None:
            mask = np.zeros(width, dtype=bool)
            partial = self._partial.get(path)
            if partial is not None:
                mask[partial.vertices] = True
            self._coverage[key] = mask
        return mask

    def gather_rows(
        self, path: MetaPath, vertex_indices: "np.ndarray | list[int]"
    ) -> sparse.csr_matrix:
        """Stacked stored rows of ``path`` for ``vertex_indices`` (all hits).

        One fancy-indexed row gather, from the full matrix or from the
        stacked partial store through its inverse array.

        Raises
        ------
        ExecutionError
            If any requested vertex has no stored row — callers partition
            with :meth:`coverage_mask` first.
        """
        slots = np.asarray(vertex_indices, dtype=np.int64)
        matrix = self.full_matrix(path)
        if matrix is not None:
            found = _all_within(slots, matrix.shape[0])
        else:
            partial = self._partial.get(path, _NO_ROWS)
            matrix = partial.stacked
            found = _all_within(slots, partial.inverse.size)
            if found:
                slots = partial.inverse[slots]
                found = _all_within(slots, matrix.shape[0])
        if not found:
            raise ExecutionError(
                f"gather_rows: no stored row for some vertex of {path}"
            )
        return matrix[slots, :].tocsr()

    @property
    def paths(self) -> list[MetaPath]:
        """All meta-paths with any stored data, full matrices first."""
        return list(self._full) + list(self._partial)

    # ------------------------------------------------------------------
    # Flat-buffer export / attach (array stores)
    # ------------------------------------------------------------------
    def export_arrays(self) -> tuple[dict, dict[str, "np.ndarray"]]:
        """Flatten the index into a manifest plus named numpy arrays.

        The manifest (plain dicts/lists, picklable) records each stored
        matrix's meta-path, kind, shape and array-name prefix; the arrays
        map carries every CSR buffer (``data``/``indices``/``indptr`` per
        matrix, plus the covered-vertex array for partial stores).  Together
        they are what the process-parallel service commits as its worker
        segment, and what :mod:`repro.engine.index_io` saves — see
        :meth:`from_arrays` for the zero-copy reattach.
        """
        entries: list[dict] = []
        arrays: dict[str, np.ndarray] = {}

        def pack(kind: str, position: int, path: MetaPath, matrix) -> str:
            # Canonicalize in place (no-op when already canonical) so the
            # attach side can mark its read-only views canonical without
            # scipy ever attempting an in-place sort on shared pages.
            matrix.sum_duplicates()
            prefix = f"index:{kind}:{position}"
            arrays[f"{prefix}:data"] = matrix.data
            arrays[f"{prefix}:indices"] = matrix.indices
            arrays[f"{prefix}:indptr"] = matrix.indptr
            entries.append(
                {
                    "kind": kind,
                    "types": list(path.types),
                    "shape": [int(s) for s in matrix.shape],
                    "prefix": prefix,
                }
            )
            return prefix

        for position, path in enumerate(sorted(self._full, key=lambda p: p.types)):
            pack("full", position, path, self._full[path])
        for position, path in enumerate(
            sorted(self._partial, key=lambda p: p.types)
        ):
            partial = self._partial[path]
            prefix = pack("partial", position, path, partial.stacked)
            arrays[f"{prefix}:vertices"] = partial.vertices
        return {"entries": entries}, arrays

    @classmethod
    def from_arrays(
        cls, manifest: dict, arrays: "dict[str, np.ndarray]"
    ) -> "MetaPathIndex":
        """Rebuild an index from :meth:`export_arrays` output, zero-copy.

        Matrix buffers are adopted as-is (no validation pass, no dtype
        cast), so when ``arrays`` holds an array store's memmap views the
        rebuilt index reads the same physical pages as every other attached
        process.  Content integrity is the transport's job — an array store
        carries a fingerprint checked on open.
        """
        index = cls()
        for entry in manifest["entries"]:
            path = MetaPath(tuple(entry["types"]))
            prefix = entry["prefix"]
            matrix = csr_from_buffers(
                arrays[f"{prefix}:data"],
                arrays[f"{prefix}:indices"],
                arrays[f"{prefix}:indptr"],
                entry["shape"],
            )
            if entry["kind"] == "full":
                index._full[path] = matrix
            else:
                index.store_rows(path, arrays[f"{prefix}:vertices"], matrix)
        return index

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Total stored bytes under the CSR accounting model.

        A partial store is priced row by row (values, column indices and
        one pointer slot each), so its size does not depend on how the rows
        are packed.
        """
        total = sum(csr_storage_bytes(matrix) for matrix in self._full.values())
        for partial in self._partial.values():
            total += int(partial.stacked.nnz) * (VALUE_BYTES + INDEX_BYTES)
            total += partial.vertices.size * POINTER_BYTES
        return total

    def _rows_per_path(self) -> dict[MetaPath, int]:
        rows = {path: int(matrix.shape[0]) for path, matrix in self._full.items()}
        rows.update(
            (path, int(partial.vertices.size))
            for path, partial in self._partial.items()
        )
        return rows

    def row_count(self) -> int:
        """Number of retrievable rows across all paths."""
        return sum(self._rows_per_path().values())

    def coverage_summary(self) -> dict:
        """Observability snapshot: what this index stores, per path.

        Plain dicts/ints only (JSON-serializable) so the serving layer can
        embed it in ``/stats`` without further translation.
        """
        per_path = self._rows_per_path()
        return {
            "rows": sum(per_path.values()),
            "size_bytes": self.size_bytes(),
            "full_paths": len(self._full),
            "partial_paths": len(self._partial),
            "rows_per_path": {str(path): rows for path, rows in per_path.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetaPathIndex(full={len(self._full)}, "
            f"partial={len(self._partial)}, bytes={self.size_bytes()})"
        )


class LazyPMIndex(MetaPathIndex):
    """A PM index whose length-2 matrices are formed at their first read.

    It covers every legal length-2 path of ``network``: coverage and row
    counts answer as the eager :func:`build_pm_index` would, but only the
    matrices something has read are held (and :meth:`has_row`, "is it
    stored", answers for those).  Construction
    captures the adjacency operands of the network's current version — the
    network's own cached CSR objects, so they cost no bytes while the
    network does not change — and every build multiplies those, so after
    a mutation a stale-tolerated rung forms exactly what an eager index
    built alongside would hold, and never reads the live network.

    :meth:`full_matrix` forms a missing product under one lock and
    publishes it whole: the stored mapping is replaced, never mutated, so
    concurrent first reads build once, a read of a built matrix takes no
    lock, and an accounting pass never sees the mapping change under it.
    A build checks the request's deadline, then passes the ``index_build``
    fault point and, given a ``policy``, its memory guard and its
    ``pm-index-build`` breaker and retry.  The guard prices what the index
    would hold after the build, the matrices built so far plus this
    product, so the budget bounds the whole index as it bounds the eager
    one.  The deadline is checked outside the breaker: a request out of
    time is not a failed build.  A failed or refused build raises and
    publishes nothing.
    """

    def __init__(
        self,
        network: HeterogeneousInformationNetwork,
        *,
        policy=None,
    ) -> None:
        super().__init__()
        self._operands = {
            path: (
                network.adjacency(path.types[0], path.types[1]),
                network.adjacency(path.types[1], path.types[2]),
            )
            for path in _all_length2_paths(network)
        }
        self._policy = policy
        self._lock = threading.Lock()
        self.builds = 0
        self.build_seconds = 0.0

    def full_matrix(self, path: MetaPath) -> sparse.csr_matrix | None:
        """The matrix of ``path``, formed now if no read has formed it yet."""
        matrix = self._full.get(path)
        if matrix is None and path in self._operands:
            matrix = self._build(path)
        return matrix

    def _build(self, path: MetaPath) -> sparse.csr_matrix:
        with self._lock:
            matrix = self._full.get(path)
            if matrix is not None:  # formed while this reader waited
                return matrix
            check_deadline("lazy PM index build")
            first, second = self._operands[path]

            def product() -> sparse.csr_matrix:
                faultinject.check("index_build")
                return (first @ second).tocsr()

            started = time.perf_counter()
            if self._policy is None:
                matrix = product()
            else:
                nnz = estimate_product_nnz(first, second)
                estimate = nnz * (VALUE_BYTES + INDEX_BYTES) + POINTER_BYTES * (
                    first.shape[0] + 1
                )
                matrix = self._policy.guarded_build(
                    "pm",
                    self.size_bytes() + int(estimate),
                    f"the PM index with {path} built",
                    product,
                )
            elapsed = time.perf_counter() - started
            self._full = {**self._full, path: matrix}
            self.builds += 1
            self.build_seconds += elapsed
        _log.info(
            "built PM matrix %s on first read: %d nnz in %.1f ms",
            path,
            matrix.nnz,
            elapsed * 1e3,
        )
        return matrix

    def coverage_mask(self, path: MetaPath, width: int) -> np.ndarray | None:
        if path in self._operands:
            return None
        return super().coverage_mask(path, width)

    def _rows_per_path(self) -> dict[MetaPath, int]:
        return {
            path: int(first.shape[0]) for path, (first, _) in self._operands.items()
        }

    def coverage_summary(self) -> dict:
        """The eager index's summary, every legal row counted as covered,
        where ``full_paths`` and ``size_bytes`` are the matrices built so
        far; a ``lazy`` block adds the legal paths they are out of, and how
        many builds took how many seconds here."""
        summary = super().coverage_summary()
        summary["lazy"] = {
            "legal_paths": len(self._operands),
            "builds": self.builds,
            "build_seconds": self.build_seconds,
        }
        return summary


def _all_length2_paths(network: HeterogeneousInformationNetwork) -> list[MetaPath]:
    return [MetaPath(types) for types in network.schema.length2_metapaths()]


# ----------------------------------------------------------------------
# PM: every vertex covered
# ----------------------------------------------------------------------
def estimate_product_nnz(first: sparse.spmatrix, second: sparse.spmatrix) -> float:
    """Expected non-zeros of ``first @ second``, priced without forming it.

    The standard sparse-product estimate ``nnz(A·B) ≈ nnz(A) · (nnz(B) /
    rows(B))``, capped at dense: it reads only the operands' shapes and
    non-zero counts.
    """
    rows, cols = first.shape[0], second.shape[1]
    fanout = second.nnz / max(1, second.shape[0])
    return min(float(rows) * float(cols), first.nnz * fanout)


def _effective_block_rows(
    a1: sparse.csr_matrix,
    a2: sparse.csr_matrix,
    requested: int,
    max_build_memory_mb: "float | None",
) -> int:
    """Shrink the row-block width so one block's product fits the budget.

    The expected non-zeros of one product row is (avg nnz per A1 row) x
    (avg nnz per A2 row); each kept non-zero costs 16 bytes (float64 value
    + int64 column) and transiently about double that while the block is
    canonicalized and appended, hence the 32-byte-per-nnz model.  The
    estimate is deliberately simple — the budget bounds *expected* block
    size; pathological hub rows can still spike one block.
    """
    if requested < 1:
        raise ExecutionError(f"block_rows must be >= 1, got {requested}")
    if max_build_memory_mb is None:
        return requested
    budget_bytes = max(1.0, float(max_build_memory_mb)) * (1 << 20)
    avg1 = a1.nnz / max(1, a1.shape[0])
    avg2 = a2.nnz / max(1, a2.shape[0])
    bytes_per_row = max(1.0, avg1 * avg2) * 32.0
    return int(max(1, min(requested, budget_bytes // bytes_per_row)))


def _blocked_segment_product(
    a1: sparse.csr_matrix,
    a2: sparse.csr_matrix,
    *,
    block_rows: int,
    store: MmapArrayStore,
    prefix: str,
) -> sparse.csr_matrix:
    """``A1 @ A2`` computed in row blocks, spilling each completed block.

    Peak memory is one block's product (plus the append copy), not the
    whole matrix: a block is formed, canonicalized, its CSR triple
    appended to ``store`` (``indptr`` rebased by the running non-zero
    count), and dropped.  Because CSR matmul is row-wise independent, the
    concatenated rows are exactly the rows of the in-core product — the
    value buffers are byte-identical, which is what keeps scores
    byte-identical across in-core and out-of-core builds.

    Every block passes the ``index_build`` fault point and the cooperative
    deadline, so the out-of-core build honors the same interruption
    machinery as the rest of the engine.
    """
    rows, width = a1.shape[0], a2.shape[1]
    data_out = store.appender(f"{prefix}:data", np.float64)
    indices_out = store.appender(f"{prefix}:indices", np.int64)
    indptr_out = store.appender(f"{prefix}:indptr", np.int64)
    indptr_out.append(np.zeros(1, dtype=np.int64))
    nnz = 0
    for start in range(0, rows, block_rows):
        faultinject.check("index_build")
        check_deadline("out-of-core index build")
        block = (a1[start:start + block_rows] @ a2).tocsr()
        block.sum_duplicates()
        block.sort_indices()
        data_out.append(block.data.astype(np.float64, copy=False))
        indices_out.append(block.indices.astype(np.int64, copy=False))
        indptr_out.append(block.indptr[1:].astype(np.int64) + nnz)
        nnz += int(block.nnz)
    return csr_from_buffers(
        data_out.finalize(),
        indices_out.finalize(),
        indptr_out.finalize(),
        (rows, width),
    )


def build_pm_index(
    network: HeterogeneousInformationNetwork,
    *,
    block_rows: "int | None" = None,
    max_build_memory_mb: "float | None" = None,
    store: "MmapArrayStore | None" = None,
    paths: "Iterable[MetaPath] | None" = None,
) -> MetaPathIndex:
    """Materialize every legal length-2 meta-path in full (PM, §6.2).

    With neither ``block_rows`` nor ``max_build_memory_mb`` each product
    is formed whole in RAM and stored as it comes.  Giving either selects
    the **out-of-core** build for graphs whose products do not fit: each
    product is computed ``block_rows`` rows at a time (default
    :data:`DEFAULT_BUILD_BLOCK_ROWS`, shrunk when the product's expected
    density would blow ``max_build_memory_mb``) and every completed block
    is appended to ``store`` — a private temporary
    :class:`~repro.hin.storage.MmapArrayStore` when none is given — before
    the next is formed.  The two builds
    store byte-identical matrices (after canonicalization), because blocked
    CSR products concatenate to exactly the whole product's rows.

    The whole-product build is not "one infinite block" on purpose: a
    block pays a ``sort_indices`` and an append copy the whole product
    does not need — on the e2e benchmark corpus (12 paths, 19.9 M
    non-zeros) 1.10 s through a single block against 0.21 s whole.

    When ``store`` is given (a :class:`repro.hin.storage.MmapArrayStore`
    for the mmap tier) the matrices live in it and the finished index is
    **published atomically**: array files carry no meaning until the
    store's manifest is committed (written last, via the ``io`` fault
    point), so an interrupted build is invisible to
    :func:`repro.engine.index_io.load_index`.
    """
    blocked = block_rows is not None or max_build_memory_mb is not None
    if block_rows is None:
        block_rows = DEFAULT_BUILD_BLOCK_ROWS
    spill = MmapArrayStore() if blocked and store is None else store
    index = MetaPathIndex()
    target_paths = sorted(
        paths if paths is not None else _all_length2_paths(network),
        key=lambda p: p.types,
    )
    for position, path in enumerate(target_paths):
        prefix = f"index:full:{position}"
        if blocked:
            a1 = network.adjacency(path.types[0], path.types[1])
            a2 = network.adjacency(path.types[1], path.types[2])
            matrix = _blocked_segment_product(
                a1,
                a2,
                block_rows=_effective_block_rows(
                    a1, a2, block_rows, max_build_memory_mb
                ),
                store=spill,
                prefix=prefix,
            )
        else:
            faultinject.check("index_build")
            matrix = materialize(network, path)
            if store is not None:
                matrix = spill_csr(store, prefix, matrix)
        index.store_full(path, matrix)
    if store is not None:
        # export_arrays numbers paths in the same sorted order, so its
        # manifest names exactly the prefixes written above.
        store.commit({"index": index.export_arrays()[0]})
    return index


# ----------------------------------------------------------------------
# SPM: the hottest vertices covered
# ----------------------------------------------------------------------
def _selection_rows(
    network: HeterogeneousInformationNetwork,
    path: MetaPath,
    vertex_indices: np.ndarray,
) -> sparse.csr_matrix:
    """Rows ``φ_path(v)`` for a batch of source vertices via selection-gather."""
    width = network.num_vertices(path.source)
    count = int(vertex_indices.size)
    product: sparse.csr_matrix = sparse.csr_matrix(
        (
            np.ones(count, dtype=np.float64),
            (np.arange(count, dtype=np.int64), vertex_indices),
        ),
        shape=(count, width),
    )
    for left, right in zip(path.types, path.types[1:]):
        product = product @ network.adjacency(left, right)
    product = product.tocsr()
    product.sum_duplicates()
    product.sort_indices()
    return product


def build_spm_index(
    network: HeterogeneousInformationNetwork,
    ranked: Iterable[VertexId],
    *,
    max_bytes: "int | None" = None,
    block_rows: int = DEFAULT_BUILD_BLOCK_ROWS,
    store: "MmapArrayStore | None" = None,
) -> tuple[MetaPathIndex, list[VertexId]]:
    """Materialize length-2 rows for the ``ranked`` vertices only (SPM, §6.2).

    For each admitted vertex, rows are stored for every legal length-2
    meta-path starting at the vertex's type.  ``ranked`` must be ordered
    hottest-first (the re-indexer ranks by observed query frequency);
    with a ``max_bytes`` budget each vertex is admitted all-or-nothing —
    either every one of its rows fits and is stored, or the build stops
    there — so the index never has a vertex whose coverage depends on
    which meta-path a query uses.  Returns ``(index, admitted)`` where the
    list records which vertices made the cut, in rank order.

    Rows are computed ``block_rows`` vertices at a time with one
    selection-gather product per (type, path); every block passes the
    ``index_build`` fault point and the cooperative deadline.  When
    ``store`` is given the stacked rows live in it and the index is
    published atomically by the manifest commit, as in
    :func:`build_pm_index`.
    """
    faultinject.check("index_build")
    if block_rows < 1:
        raise ExecutionError(f"block_rows must be >= 1, got {block_rows}")
    ranked = list(dict.fromkeys(ranked))
    paths_by_source: dict[str, list[MetaPath]] = {}
    for path in _all_length2_paths(network):
        paths_by_source.setdefault(path.source, []).append(path)

    admitted: list[VertexId] = []
    # Per path, the admitted (vertex indices, row block) pairs in rank order.
    kept_rows: dict[MetaPath, list[tuple[np.ndarray, sparse.csr_matrix]]] = {}
    total = 0
    for block_start in range(0, len(ranked), block_rows):
        block = ranked[block_start:block_start + block_rows]
        faultinject.check("index_build")
        check_deadline("SPM index build")
        positions_by_type: dict[str, list[int]] = {}
        for position, vertex in enumerate(block):
            positions_by_type.setdefault(vertex.type, []).append(position)
        vertex_bytes = np.zeros(len(block), dtype=np.int64)
        gathered: list[tuple[MetaPath, np.ndarray, np.ndarray, sparse.csr_matrix]] = []
        for vertex_type, positions in positions_by_type.items():
            where = np.asarray(positions, dtype=np.int64)
            indices = np.asarray(
                [block[position].index for position in positions], dtype=np.int64
            )
            for path in paths_by_source.get(vertex_type, []):
                rows = _selection_rows(network, path, indices)
                vertex_bytes[where] += (
                    np.diff(rows.indptr) * (VALUE_BYTES + INDEX_BYTES)
                    + POINTER_BYTES
                )
                gathered.append((path, where, indices, rows))
        # Hottest-first, all-or-nothing: the longest prefix that fits.
        fits = len(block)
        if max_bytes is not None:
            fits = int(
                np.searchsorted(
                    total + np.cumsum(vertex_bytes), max_bytes, side="right"
                )
            )
        total += int(vertex_bytes[:fits].sum())
        admitted.extend(block[:fits])
        for path, where, indices, rows in gathered:
            kept = int(np.searchsorted(where, fits))
            if kept:
                kept_rows.setdefault(path, []).append(
                    (indices[:kept], rows[:kept])
                )
        if fits < len(block):
            break

    index = MetaPathIndex()
    for position, path in enumerate(sorted(kept_rows, key=lambda p: p.types)):
        vertices = np.concatenate([indices for indices, _ in kept_rows[path]])
        stacked = sparse.vstack(
            [rows for _, rows in kept_rows[path]], format="csr"
        )
        if store is not None:
            prefix = f"index:partial:{position}"
            stacked = spill_csr(store, prefix, stacked)
            store.put(f"{prefix}:vertices", vertices)
        index.store_rows(path, vertices, stacked)
    if store is not None:
        store.commit({"index": index.export_arrays()[0]})
    return index, admitted
