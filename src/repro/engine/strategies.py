"""Meta-path materialization strategies (paper Sections 6.1-6.2).

A strategy answers one question: *given a meta-path ``P`` and a start
vertex, produce the neighbor vector ``φ_P``* — and accounts the time spent
under the paper's phase taxonomy (not-indexed traversal vs indexed lookup).

* :class:`BaselineStrategy` materializes every vector by frontier traversal
  over the adjacency structure (dictionary accumulation, one hop at a
  time).  This models the paper's unindexed executor: per-vertex graph
  traversal whose cost grows with path length and vertex degree.
* :class:`PMStrategy` holds a full length-2 index: the first two hops are a
  row lookup, and remaining length-2 segments are row x cached-matrix
  products (the "multiplication of indexed vectors" of §6.2).
* :class:`SPMStrategy` holds a partial index: rows exist only for selected
  vertices.  Hits are lookups; misses fall back to two-hop traversal —
  producing exactly the phase mix Figure 4 analyzes.

Batched materialization
-----------------------
:meth:`MaterializationStrategy.neighbor_matrix` is the engine's hot path:
every query materializes ``φ_P`` for the whole candidate and reference set.
It processes the request in **blocks of at most** :data:`BLOCK_ROWS` rows;
each block is produced by one bulk :meth:`_materialize_block` call — a
handful of SciPy CSR matrix-matrix products — instead of ``|S|`` per-vertex
Python iterations.  Cooperative deadline checks run once per block, so an
expired budget still surfaces within one block's cost, and every returned
matrix is canonicalized (``float64``, duplicate-free, sorted indices) so
downstream equality comparisons and cache hashing are stable.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import abc

import numpy as np
from scipy import sparse

from repro import faultinject
from repro.engine.deadline import check_deadline
from repro.engine.index import MetaPathIndex, build_pm_index, build_spm_index
from repro.engine.stats import PHASE_INDEXED, PHASE_NOT_INDEXED, ExecutionStats
from repro.exceptions import ExecutionError, MetaPathError
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.metapath.counting import neighbor_counts
from repro.metapath.materialize import decompose_length2, materialize_segment
from repro.metapath.metapath import MetaPath

__all__ = [
    "BLOCK_ROWS",
    "MaterializationStrategy",
    "BaselineStrategy",
    "PMStrategy",
    "SPMStrategy",
    "make_strategy",
]

#: Rows per materialization block.  Large enough that SciPy's C-level
#: sparse products dominate the per-block Python overhead, small enough
#: that one cooperative deadline check per block keeps overrun latency
#: bounded by a single block's cost.
BLOCK_ROWS = 512

# Shared all-zero 1 x width rows, one per width.  Empty neighbor vectors
# are common (isolated vertices, exhausted frontiers) and immutable under
# every CSR operation the engine performs, so one singleton per width
# avoids re-allocating three empty arrays per vertex.
_EMPTY_ROWS: dict[int, sparse.csr_matrix] = {}


def _empty_row(width: int) -> sparse.csr_matrix:
    row = _EMPTY_ROWS.get(width)
    if row is None:
        row = sparse.csr_matrix((1, width), dtype=np.float64)
        _EMPTY_ROWS[width] = row
    return row


def _counts_to_row(counts: dict[int, float], width: int) -> sparse.csr_matrix:
    """Pack a sparse ``{index: count}`` map into a 1 x width CSR row."""
    if not counts:
        return _empty_row(width)
    size = len(counts)
    indices = np.fromiter(counts.keys(), dtype=np.int64, count=size)
    data = np.fromiter(counts.values(), dtype=np.float64, count=size)
    order = np.argsort(indices, kind="stable")
    return sparse.csr_matrix(
        (data[order], indices[order], np.array([0, size], dtype=np.int64)),
        shape=(1, width),
    )


def _identity_row(width: int, index: int) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        ([1.0], ([0], [index])), shape=(1, width), dtype=np.float64
    )


def _selection_matrix(indices: np.ndarray, width: int) -> sparse.csr_matrix:
    """The gather matrix ``S``: ``S @ M == M[indices, :]`` (k x width CSR)."""
    size = len(indices)
    return sparse.csr_matrix(
        (
            np.ones(size, dtype=np.float64),
            np.asarray(indices, dtype=np.int64),
            np.arange(size + 1, dtype=np.int64),
        ),
        shape=(size, width),
    )


def _canonical(matrix: sparse.spmatrix) -> sparse.csr_matrix:
    """Normalize to float64 CSR with summed duplicates and sorted indices.

    Every strategy funnels its output through this, so downstream ``==``
    comparisons, structural equality checks, and cache hashing never see
    dtype drift or non-canonical index order.
    """
    csr = matrix.tocsr()
    if csr.dtype != np.float64:
        csr = csr.astype(np.float64)
    csr.sum_duplicates()
    if not csr.has_sorted_indices:
        csr.sort_indices()
    return csr


def _stitch_rows(
    blocks: "list[tuple[np.ndarray, sparse.csr_matrix]]", total: int
) -> sparse.csr_matrix:
    """Reassemble partition blocks into their original request order.

    ``blocks`` pairs each sub-block with the output row positions it
    covers; one vstack plus one permutation gather restores request order.
    """
    parts = [block for _, block in blocks if block.shape[0]]
    positions = np.concatenate(
        [pos for pos, block in blocks if block.shape[0]]
    ) if parts else np.empty(0, dtype=np.int64)
    if len(parts) == 1 and np.array_equal(positions, np.arange(total)):
        return parts[0]
    stacked = sparse.vstack(parts, format="csr") if len(parts) > 1 else parts[0]
    order = np.argsort(positions, kind="stable")
    return stacked[order, :].tocsr()


class MaterializationStrategy(abc.ABC):
    """Produces neighbor vectors ``φ_P`` and accounts the time per phase."""

    #: Registry/reporting name; subclasses set this.
    name: str = ""

    #: Optional shared :class:`~repro.engine.caching.SubpathCache` attached
    #: by the serving layer: when set, the blocked materialization paths
    #: reuse full length-2 segment products across concurrent queries whose
    #: meta-paths overlap.  ``None`` (the default) leaves batch-library
    #: behavior untouched.
    subpath_cache = None

    def __init__(self, network: HeterogeneousInformationNetwork) -> None:
        self.network = network

    def _segment_product(self, segment: MetaPath) -> sparse.csr_matrix:
        """The full count matrix of a length-2 ``segment``, cache-assisted.

        Consults :attr:`subpath_cache` when attached (keyed by the current
        network version); on a miss the product is computed and offered
        back.  Counts are exact integers in float64, so substituting the
        cached ``A₁ @ A₂`` for the two chained hops is byte-identical —
        the property ``tests/properties`` pins.
        """
        cache = self.subpath_cache
        version = self.network.version
        matrix = cache.get(segment, version) if cache is not None else None
        if matrix is None:
            matrix = materialize_segment(self.network, segment)
            if cache is not None:
                cache.put(segment, version, matrix)
        return matrix

    @abc.abstractmethod
    def neighbor_row(
        self,
        path: MetaPath,
        vertex_index: int,
        stats: ExecutionStats | None = None,
    ) -> sparse.csr_matrix:
        """``φ_path(vertex)`` as a 1 x n CSR row over the target type."""

    def _materialize_block(
        self,
        path: MetaPath,
        vertex_indices: np.ndarray,
        stats: ExecutionStats | None,
    ) -> sparse.csr_matrix:
        """One bulk block of ``φ_path`` rows (≤ :data:`BLOCK_ROWS` of them).

        The default stacks per-vertex rows — a correct fallback for
        third-party strategies that only implement :meth:`neighbor_row`.
        The built-in strategies override it with matrix-product block
        paths; nothing on their query hot path iterates per vertex.
        """
        return sparse.vstack(
            [self.neighbor_row(path, int(index), stats) for index in vertex_indices],
            format="csr",
        )

    def neighbor_matrix(
        self,
        path: MetaPath,
        vertex_indices: Sequence[int],
        stats: ExecutionStats | None = None,
    ) -> sparse.csr_matrix:
        """Stacked ``φ_path`` rows for ``vertex_indices`` (len x n CSR).

        The request is processed in blocks of at most :data:`BLOCK_ROWS`
        rows; each block is one :meth:`_materialize_block` call, with one
        cooperative deadline check per block so overrun latency stays
        bounded by a single block's cost.
        """
        width = self.network.num_vertices(path.target)
        indices = np.asarray(list(vertex_indices), dtype=np.int64)
        if indices.size == 0:
            return sparse.csr_matrix((0, width), dtype=np.float64)
        source_width = self.network.num_vertices(path.source)
        low, high = int(indices.min()), int(indices.max())
        if low < 0 or high >= source_width:
            bad = low if low < 0 else high
            raise MetaPathError(
                f"vertex index {bad} out of range for type {path.source!r}"
            )
        blocks = []
        for start in range(0, len(indices), BLOCK_ROWS):
            # Cooperative deadline enforcement: one check per block bounds
            # overrun latency to a single block's materialization cost.
            check_deadline("neighbor-block materialization")
            blocks.append(
                self._materialize_block(
                    path, indices[start:start + BLOCK_ROWS], stats
                )
            )
        if stats is not None:
            stats.materialized_blocks += len(blocks)
        stacked = blocks[0] if len(blocks) == 1 else sparse.vstack(
            blocks, format="csr"
        )
        return _canonical(stacked)

    def index_size_bytes(self) -> int:
        """Bytes of index storage this strategy holds (0 when unindexed)."""
        return 0

    def answers_by_lookup(self, path: MetaPath) -> bool:
        """Whether ``φ_path`` is a single index/adjacency gather here.

        A row cache in front of such a path saves nothing — the lookup it
        would skip costs less than the cache's own bookkeeping — so
        :class:`~repro.engine.caching.CachingStrategy` steps aside for it.
        ``False`` (the default) wherever a product or traversal is involved.
        """
        return False

    def _check_path(self, path: MetaPath) -> None:
        path.validate(self.network.schema)

    def _adjacency_chain(self, path: MetaPath) -> list[sparse.csr_matrix]:
        return [
            self.network.adjacency(left, right)
            for left, right in zip(path.types, path.types[1:])
        ]


class BaselineStrategy(MaterializationStrategy):
    """Unindexed execution: per-vertex frontier traversal (paper §6.1).

    Bulk requests use the selection-matrix gather ``S @ A₁ @ A₂ @ …``:
    one sparse product per hop materializes the whole block at once.  For
    network implementations that cannot supply adjacency matrices (or when
    ``use_matrix_products=False``), the block falls back to one bulk
    frontier traversal assembled into a single CSR per block.
    """

    name = "baseline"

    def __init__(
        self,
        network: HeterogeneousInformationNetwork,
        *,
        use_matrix_products: bool = True,
    ) -> None:
        super().__init__(network)
        self.use_matrix_products = use_matrix_products

    def neighbor_row(self, path, vertex_index, stats=None) -> sparse.csr_matrix:
        self._check_path(path)
        width = self.network.num_vertices(path.target)
        if stats is None:
            counts = neighbor_counts(
                self.network, path, VertexId(path.source, vertex_index)
            )
            return _counts_to_row(counts, width)
        with stats.timer.phase(PHASE_NOT_INDEXED):
            counts = neighbor_counts(
                self.network, path, VertexId(path.source, vertex_index)
            )
            row = _counts_to_row(counts, width)
        stats.traversed_vectors += 1
        return row

    # -- bulk path -------------------------------------------------------
    def _materialize_block(self, path, vertex_indices, stats):
        self._check_path(path)
        if stats is None:
            return self._block(path, vertex_indices)
        with stats.timer.phase(PHASE_NOT_INDEXED):
            block = self._block(path, vertex_indices)
        stats.traversed_vectors += len(vertex_indices)
        return block

    def _block(self, path, vertex_indices) -> sparse.csr_matrix:
        source_width = self.network.num_vertices(path.source)
        if path.length == 0:
            return _selection_matrix(vertex_indices, source_width)
        if self.use_matrix_products:
            try:
                chain = self._adjacency_chain(path)
            except NotImplementedError:
                return self._frontier_block(path, vertex_indices)
            # No matrix_multiply fault point here: the unindexed rung is the
            # degradation ladder's infallible floor, exactly like the
            # row-at-a-time traversal path.  (SubpathCache faults are
            # self-healing inside the cache, so consulting it below cannot
            # make this rung raise.)
            block = _selection_matrix(vertex_indices, source_width)
            if self.subpath_cache is not None and path.length >= 2:
                segments, tail = decompose_length2(path)
                for segment in segments:
                    block = block @ self._segment_product(segment)
                if tail is not None:
                    block = block @ self.network.adjacency(
                        tail.types[0], tail.types[1]
                    )
                return block.tocsr()
            for step in chain:
                block = block @ step
            return block.tocsr()
        return self._frontier_block(path, vertex_indices)

    def _frontier_block(self, path, vertex_indices) -> sparse.csr_matrix:
        """Bulk frontier fallback: one CSR assembled per block, no vstack."""
        width = self.network.num_vertices(path.target)
        indptr = np.zeros(len(vertex_indices) + 1, dtype=np.int64)
        column_chunks: list[np.ndarray] = []
        data_chunks: list[np.ndarray] = []
        for position, index in enumerate(vertex_indices):
            counts = neighbor_counts(
                self.network, path, VertexId(path.source, int(index))
            )
            size = len(counts)
            indptr[position + 1] = indptr[position] + size
            if size:
                columns = np.fromiter(counts.keys(), dtype=np.int64, count=size)
                values = np.fromiter(counts.values(), dtype=np.float64, count=size)
                order = np.argsort(columns, kind="stable")
                column_chunks.append(columns[order])
                data_chunks.append(values[order])
        columns = (
            np.concatenate(column_chunks)
            if column_chunks
            else np.empty(0, dtype=np.int64)
        )
        data = (
            np.concatenate(data_chunks)
            if data_chunks
            else np.empty(0, dtype=np.float64)
        )
        return sparse.csr_matrix(
            (data, columns, indptr), shape=(len(vertex_indices), width)
        )


class PMStrategy(MaterializationStrategy):
    """Full length-2 pre-materialization (paper §6.2, PM).

    Parameters
    ----------
    network:
        The network to execute over.
    index:
        A pre-built index; when ``None`` every legal length-2 meta-path is
        materialized up front (the build cost is paid here, not at query
        time, matching the paper's offline indexing setting).
    """

    name = "pm"

    def __init__(
        self,
        network: HeterogeneousInformationNetwork,
        index: MetaPathIndex | None = None,
        *,
        allow_stale: bool = False,
    ) -> None:
        super().__init__(network)
        self.index = index if index is not None else build_pm_index(network)
        # Snapshot the network's mutation counter: a pre-built index is
        # presumed consistent with the network *as passed in*.
        self._built_version = network.version
        self._allow_stale = allow_stale

    def index_size_bytes(self) -> int:
        return self.index.size_bytes()

    def answers_by_lookup(self, path: MetaPath) -> bool:
        # Up to one full length-2 segment: one gather from the index (or
        # from an adjacency matrix), no product chained after it.
        return path.length <= 2

    def _check_fresh(self) -> None:
        if self._allow_stale:
            return
        if self.network.version != self._built_version:
            raise ExecutionError(
                "the network changed after the PM index was built "
                f"(version {self._built_version} -> {self.network.version}); "
                "rebuild the index or pass allow_stale=True"
            )

    def neighbor_row(self, path, vertex_index, stats=None) -> sparse.csr_matrix:
        self._check_path(path)
        self._check_fresh()
        width = self.network.num_vertices(path.target)
        source_width = self.network.num_vertices(path.source)

        def compute() -> sparse.csr_matrix:
            if path.length == 0:
                return _identity_row(width, vertex_index)
            segments, tail = decompose_length2(path)
            if not segments:
                # Single-hop path: one adjacency row slice.
                return _canonical(
                    self.network.adjacency(path.types[0], path.types[1]).getrow(
                        vertex_index
                    )
                )
            first = self.index.lookup(segments[0], vertex_index)
            if first is None:
                raise ExecutionError(
                    f"PM index is missing a row for {segments[0]} "
                    f"(vertex {vertex_index}); was it built for this network?"
                )
            row = first
            for segment in segments[1:]:
                matrix = self.index.full_matrix(segment)
                if matrix is None:
                    raise ExecutionError(
                        f"PM index is missing the matrix for {segment}"
                    )
                check_deadline("indexed row multiplication")
                faultinject.check("matrix_multiply")
                row = row @ matrix
            if tail is not None:
                row = row @ self.network.adjacency(tail.types[0], tail.types[1])
            return _canonical(row)

        if vertex_index < 0 or vertex_index >= source_width:
            raise MetaPathError(
                f"vertex index {vertex_index} out of range for type {path.source!r}"
            )
        if stats is None:
            return compute()
        with stats.timer.phase(PHASE_INDEXED):
            row = compute()
        stats.indexed_vectors += 1
        return row

    # -- bulk path -------------------------------------------------------
    def _materialize_block(self, path, vertex_indices, stats):
        """Slice one whole index-row block, then chain block x matrix products."""
        self._check_path(path)
        self._check_fresh()

        def compute() -> sparse.csr_matrix:
            source_width = self.network.num_vertices(path.source)
            if path.length == 0:
                return _selection_matrix(vertex_indices, source_width)
            segments, tail = decompose_length2(path)
            if not segments:
                adjacency = self.network.adjacency(path.types[0], path.types[1])
                return _selection_matrix(vertex_indices, source_width) @ adjacency
            first = self.index.full_matrix(segments[0])
            if first is None:
                raise ExecutionError(
                    f"PM index is missing the matrix for {segments[0]}"
                )
            faultinject.check("matrix_multiply")
            block = _selection_matrix(vertex_indices, source_width) @ first
            for segment in segments[1:]:
                matrix = self.index.full_matrix(segment)
                if matrix is None:
                    raise ExecutionError(
                        f"PM index is missing the matrix for {segment}"
                    )
                check_deadline("indexed block multiplication")
                faultinject.check("matrix_multiply")
                block = block @ matrix
            if tail is not None:
                block = block @ self.network.adjacency(tail.types[0], tail.types[1])
            return block.tocsr()

        if stats is None:
            return compute()
        with stats.timer.phase(PHASE_INDEXED):
            block = compute()
        stats.indexed_vectors += len(vertex_indices)
        return block


class SPMStrategy(MaterializationStrategy):
    """Selective pre-materialization (paper §6.2, SPM).

    Index rows exist only for a selected vertex subset; other vertices fall
    back to two-hop frontier traversal.  Each materialized vector is
    attributed to the indexed phase when its *start* row came from the
    index, else to the not-indexed phase, mirroring the paper's Figure 4
    accounting.

    Bulk requests partition each block into index **hits** — gathered with
    one fancy-indexed row slice — and **misses** — materialized by one
    selection-gather block traversal through the segment's adjacency
    matrices.  Later segments run as block x adjacency products; their time
    is split between the indexed and not-indexed phases by *element
    counts* (how many per-vertex segment fetches the row-at-a-time path
    would have served from the index vs by traversal), so the Figure 4
    phase mix stays faithful without per-row timers.
    """

    name = "spm"

    def __init__(
        self,
        network: HeterogeneousInformationNetwork,
        index: MetaPathIndex | None = None,
        selected: Iterable[VertexId] | None = None,
        *,
        allow_stale: bool = False,
    ) -> None:
        super().__init__(network)
        if index is None:
            index = build_spm_index(network, selected or [])
        self.index = index
        self._built_version = network.version
        self._allow_stale = allow_stale

    def index_size_bytes(self) -> int:
        return self.index.size_bytes()

    def _check_fresh(self) -> None:
        if self._allow_stale:
            return
        if self.network.version != self._built_version:
            raise ExecutionError(
                "the network changed after the SPM index was built "
                f"(version {self._built_version} -> {self.network.version}); "
                "rebuild the index or pass allow_stale=True"
            )

    def _segment_row(
        self,
        segment: MetaPath,
        vertex_index: int,
        stats: ExecutionStats | None,
    ) -> sparse.csr_matrix:
        """One vertex's row of a length-2 segment: lookup or traversal."""
        width = self.network.num_vertices(segment.target)
        hit = self.index.lookup(segment, vertex_index)
        if hit is not None:
            if stats is not None:
                stats.indexed_vectors += 1
            return hit
        if stats is not None:
            stats.traversed_vectors += 1
        counts = neighbor_counts(
            self.network, segment, VertexId(segment.source, vertex_index)
        )
        return _counts_to_row(counts, width)

    def neighbor_row(self, path, vertex_index, stats=None) -> sparse.csr_matrix:
        self._check_path(path)
        self._check_fresh()
        width = self.network.num_vertices(path.target)
        if path.length == 0:
            return _identity_row(width, vertex_index)
        segments, tail = decompose_length2(path)
        if not segments:
            # Single hop: always a direct adjacency slice (cheap, indexed-like).
            if stats is None:
                return _canonical(
                    self.network.adjacency(path.types[0], path.types[1]).getrow(
                        vertex_index
                    )
                )
            with stats.timer.phase(PHASE_INDEXED):
                row = _canonical(
                    self.network.adjacency(path.types[0], path.types[1]).getrow(
                        vertex_index
                    )
                )
            stats.indexed_vectors += 1
            return row

        first_hit = self.index.has_row(segments[0], vertex_index)
        phase = PHASE_INDEXED if first_hit else PHASE_NOT_INDEXED

        def compute() -> sparse.csr_matrix:
            row = self._segment_row(segments[0], vertex_index, stats)
            for segment in segments[1:]:
                # Expand through the segment: Σ_j row[j] · φ_segment(vj).
                accumulator: sparse.csr_matrix | None = None
                for j, weight in zip(row.indices, row.data):
                    check_deadline("SPM segment expansion")
                    contribution = self._segment_row(segment, int(j), stats)
                    term = contribution.multiply(weight)
                    accumulator = term if accumulator is None else accumulator + term
                if accumulator is None:
                    return _empty_row(self.network.num_vertices(segment.target))
                row = accumulator.tocsr()
            if tail is not None:
                row = row @ self.network.adjacency(tail.types[0], tail.types[1])
            return _canonical(row)

        if stats is None:
            return compute()
        with stats.timer.phase(phase):
            return compute()

    # -- bulk path -------------------------------------------------------
    def _materialize_block(self, path, vertex_indices, stats):
        self._check_path(path)
        self._check_fresh()
        source_width = self.network.num_vertices(path.source)
        if path.length == 0:
            return _selection_matrix(vertex_indices, source_width)
        segments, tail = decompose_length2(path)
        if not segments:
            # Single hop: one selection-gather of adjacency rows.
            def gather() -> sparse.csr_matrix:
                adjacency = self.network.adjacency(path.types[0], path.types[1])
                return _selection_matrix(vertex_indices, source_width) @ adjacency

            if stats is None:
                return gather()
            with stats.timer.phase(PHASE_INDEXED):
                block = gather()
            stats.indexed_vectors += len(vertex_indices)
            return block

        first = segments[0]
        coverage = self.index.coverage_mask(first, source_width)
        if coverage is None:
            hit_mask = np.ones(len(vertex_indices), dtype=bool)
        else:
            hit_mask = coverage[vertex_indices]
        hit_positions = np.flatnonzero(hit_mask)
        miss_positions = np.flatnonzero(~hit_mask)

        parts: list[tuple[np.ndarray, sparse.csr_matrix]] = []
        if hit_positions.size:
            # Index hits: one fancy-indexed row gather from the stored rows.
            def gather_hits() -> sparse.csr_matrix:
                return self.index.gather_rows(first, vertex_indices[hit_mask])

            if stats is None:
                hit_block = gather_hits()
            else:
                with stats.timer.phase(PHASE_INDEXED):
                    hit_block = gather_hits()
                stats.indexed_vectors += int(hit_positions.size)
            parts.append((hit_positions, hit_block))
        if miss_positions.size:
            # Index misses: the single block traversal the bulk API allows —
            # a selection gather pushed through the segment's two hops.
            def traverse_misses() -> sparse.csr_matrix:
                block = _selection_matrix(vertex_indices[~hit_mask], source_width)
                if self.subpath_cache is not None:
                    return (block @ self._segment_product(first)).tocsr()
                for step in self._adjacency_chain(first):
                    block = block @ step
                return block.tocsr()

            if stats is None:
                miss_block = traverse_misses()
            else:
                with stats.timer.phase(PHASE_NOT_INDEXED):
                    miss_block = traverse_misses()
                stats.traversed_vectors += int(miss_positions.size)
            parts.append((miss_positions, miss_block))

        started = time.perf_counter()
        block = _stitch_rows(parts, len(vertex_indices))
        indexed_elements = 0
        traversed_elements = 0
        for segment in segments[1:]:
            if stats is not None:
                # Element counts: the per-row path fetches φ_segment(vj)
                # once per stored (row, j) element; count how many of those
                # fetches the index would serve.
                block = _canonical(block)
                segment_coverage = self.index.coverage_mask(
                    segment, block.shape[1]
                )
                if segment_coverage is None:
                    segment_hits = int(block.nnz)
                else:
                    segment_hits = int(segment_coverage[block.indices].sum())
                segment_misses = int(block.nnz) - segment_hits
                indexed_elements += segment_hits
                traversed_elements += segment_misses
                stats.indexed_vectors += segment_hits
                stats.traversed_vectors += segment_misses
            check_deadline("SPM segment block expansion")
            if self.subpath_cache is not None:
                block = block @ self._segment_product(segment)
            else:
                for step in self._adjacency_chain(segment):
                    block = block @ step
        if tail is not None:
            block = block @ self.network.adjacency(tail.types[0], tail.types[1])
        if stats is not None:
            # Split the shared block work (stitch + later segments + tail)
            # between the two phases by element counts; when no expansion
            # elements exist, fall back to the first segment's row mix.
            elapsed = time.perf_counter() - started
            total = indexed_elements + traversed_elements
            if total == 0:
                indexed_elements = int(hit_positions.size)
                total = len(vertex_indices)
            fraction = indexed_elements / total if total else 1.0
            stats.timer.add(PHASE_INDEXED, elapsed * fraction)
            stats.timer.add(PHASE_NOT_INDEXED, elapsed * (1.0 - fraction))
        return block.tocsr()


def make_strategy(
    network: HeterogeneousInformationNetwork,
    name: str,
    *,
    index: MetaPathIndex | None = None,
    selected: Iterable[VertexId] | None = None,
) -> MaterializationStrategy:
    """Instantiate a strategy by name: ``"baseline"``, ``"pm"``, or ``"spm"``.

    Parameters
    ----------
    index:
        Pre-built index for ``"pm"``/``"spm"`` (built on demand otherwise).
    selected:
        SPM only: vertices to index when no pre-built index is supplied.
    """
    lowered = name.lower()
    if lowered == "baseline":
        return BaselineStrategy(network)
    if lowered == "pm":
        return PMStrategy(network, index=index)
    if lowered == "spm":
        return SPMStrategy(network, index=index, selected=selected)
    raise ExecutionError(
        f"unknown strategy {name!r}; expected baseline, pm, or spm"
    )
