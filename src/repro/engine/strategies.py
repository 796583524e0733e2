"""Meta-path materialization strategies (paper Sections 6.1-6.2).

A strategy answers one question: *given a meta-path ``P`` and a block of
start vertices, produce their neighbor vectors ``φ_P``* — and accounts the
time spent under the paper's phase taxonomy (not-indexed traversal vs
indexed lookup).

The paper defines PM and SPM as the same length-2 row store differing only
in which vertices have a row, and the baseline as the store with none.  So
there is **one** materialization routine, driven by the coverage of a
:class:`~repro.engine.index.MetaPathIndex`; the three named strategies are
what they construct and what they refuse:

* :class:`BaselineStrategy` — an empty index: every segment is a product
  over the adjacency matrices (§6.1).  It can never be stale and reaches no
  fault point, which makes it the degradation ladder's infallible floor.
* :class:`SPMStrategy` — a partial index: rows exist for selected vertices;
  hits are gathered, misses computed, producing the phase mix Figure 4
  analyzes.
* :class:`PMStrategy` — a full index: every length-2 matrix stored, and a
  missing one is an error rather than a reason to traverse.

A coverage strategy serves from one immutable :class:`Rung` (index, build
version, staleness tolerance); the degradation ladder
(:class:`~repro.engine.resilience.FallbackStrategy`) replaces its rung.
:func:`make_strategy` is the one reader of a strategy name: with a
resilience policy that allows degradation, a name means the ladder from that
rung down, and :func:`build_index` is the one per-name index build.

The routine
-----------
A path decomposes into length-2 segments plus one tail hop when its length
is odd (§6.2).  For a block of start vertices:

1. the **first segment** is split by ``index.coverage_mask``: covered
   vertices are one fancy-indexed gather of stored rows, the rest one
   ``S @ A₁ @ A₂`` product (``S`` the selection matrix of the block);
2. each **later segment** multiplies the block by the cheapest operand
   held: the index's full matrix of the segment, else the attached
   sub-path cache's product, else the segment's two adjacency hops;
3. the odd **tail hop** multiplies last.

Accounting
----------
``indexed_vectors`` / ``traversed_vectors`` count one per *segment fetch*
— one per start vertex for the first segment, one per stored element of
the incoming block for each later segment — indexed when the fetched
vertex is covered.  A path shorter than one segment fetches nothing from
any index: its rows count as traversed.  The first segment's gather and
product are timed into their own phases; the time of everything after is
split between the two phases in proportion to the block's counts.

:meth:`MaterializationStrategy.neighbor_matrix` is the engine's hot path:
it processes a request in **blocks of at most** :data:`BLOCK_ROWS` rows,
one :meth:`~MaterializationStrategy._materialize_block` call and one
cooperative deadline check per block, and canonicalizes what it returns
(``float64``, duplicate-free, sorted indices) so downstream equality
comparisons and cache hashing are stable.  ``neighbor_row`` is the one-row
block.  Rows and visibilities are refused, naming the path, once a count
reaches 2⁵³ (:func:`~repro.metapath.materialize.check_exact`), as
:func:`~repro.metapath.materialize.connectivity_sums` refuses its sums.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy import sparse

from repro import faultinject
from repro.core.connectivity import visibilities as row_visibilities
from repro.engine.deadline import check_deadline
from repro.engine.index import MetaPathIndex, build_pm_index, build_spm_index
from repro.engine.stats import (
    PHASE_INDEXED,
    PHASE_NOT_INDEXED,
    PHASE_SCORING,
    ExecutionStats,
)
from repro.exceptions import ExecutionError, MetaPathError
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.metapath.materialize import (
    check_exact,
    connectivity_sums,
    decompose_length2,
    materialize_segment,
)
from repro.metapath.metapath import MetaPath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.resilience import ResiliencePolicy

__all__ = [
    "BLOCK_ROWS",
    "Rung",
    "MaterializationStrategy",
    "BaselineStrategy",
    "PMStrategy",
    "SPMStrategy",
    "DEGRADATION_LADDER",
    "strategy_name",
    "build_index",
    "make_strategy",
]

#: Rows per materialization block.  Large enough that SciPy's C-level
#: sparse products dominate the per-block Python overhead, small enough
#: that one cooperative deadline check per block keeps overrun latency
#: bounded by a single block's cost.
BLOCK_ROWS = 512

#: The strategy names, strongest index first: the full degradation ladder.
#: A ladder for a weaker rung starts partway down (SPM falls back to
#: baseline only).
DEGRADATION_LADDER = ("pm", "spm", "baseline")


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
    if len(blocks) == 1:
        return blocks[0][1]
    positions = np.concatenate([pos for pos, _ in blocks])
    stacked = sparse.vstack([block for _, block in blocks], format="csr")
    if np.array_equal(positions, np.arange(total)):
        return stacked
    return stacked[np.argsort(positions, kind="stable"), :].tocsr()


@dataclass(frozen=True)
class Rung:
    """The index a coverage strategy serves from, and what it refuses.

    Immutable: a strategy replaces the whole record (a ladder demotion, a
    hot-swap's retirement), and a block reads it once, so no block mixes
    two indexes.
    """

    name: str  # "baseline", "pm" or "spm"
    index: MetaPathIndex
    #: The network version the index is consistent with.
    built_version: int
    #: Whether a network mutation after ``built_version`` is tolerated.
    allow_stale: bool = False

    @classmethod
    def of(cls, network, name, index=None, *, allow_stale=False) -> "Rung":
        """``index`` presumed consistent with ``network`` as it is now; the
        baseline's index is empty and never stale."""
        if name == "baseline":
            return cls(name, MetaPathIndex(), network.version, allow_stale=True)
        return cls(name, index, network.version, allow_stale)

    @property
    def requires_full_index(self) -> bool:
        """PM only: a length-2 segment the index holds no full matrix for is
        an error rather than a product over the adjacency matrices."""
        return self.name == "pm"

    def check_fresh(self, network: HeterogeneousInformationNetwork) -> None:
        if self.allow_stale or network.version == self.built_version:
            return
        raise ExecutionError(
            f"the network changed after the {self.name.upper()} index was built "
            f"(version {self.built_version} -> {network.version}); "
            "rebuild the index or pass allow_stale=True"
        )


class MaterializationStrategy(abc.ABC):
    """Produces neighbor vectors ``φ_P`` and accounts the time per phase.

    A concrete strategy implements :meth:`_materialize_block`; the request
    blocking, range check, deadline checks and canonical output of
    :meth:`neighbor_matrix` — and :meth:`neighbor_row`, its one-row case —
    are inherited.
    """

    #: Registry/reporting name; subclasses set this.
    name: str = ""

    #: Optional shared :class:`~repro.engine.caching.SubpathCache` attached
    #: by the serving layer: when set, segment products over the adjacency
    #: matrices are reused across concurrent queries whose meta-paths
    #: overlap.  ``None`` (the default) leaves batch-library behavior
    #: untouched.
    subpath_cache = None

    #: Whether the strategy offers ``connectivity_sums(path, candidates,
    #: reference, stats)``, Equation 1's numerators by vector propagation.
    #: One that only implements :meth:`_materialize_block` is scored from rows.
    can_propagate = False

    #: The :class:`Rung` served from (``None`` for a strategy without an
    #: index), and why answers are degraded (a ladder's demotion history).
    rung: Rung | None = None
    degradation_reason: str | None = None
    degraded = property(lambda self: self.degradation_reason is not None)

    def __init__(self, network: HeterogeneousInformationNetwork) -> None:
        self.network = network

    def neighbor_row(
        self,
        path: MetaPath,
        vertex_index: int,
        stats: ExecutionStats | None = None,
    ) -> sparse.csr_matrix:
        """``φ_path(vertex)`` as a 1 x n CSR row: the one-row block."""
        return self.neighbor_matrix(path, [vertex_index], stats)

    def neighbor_support(
        self,
        path: MetaPath,
        vertex_index: int,
        stats: ExecutionStats | None = None,
    ) -> np.ndarray:
        """The columns where ``φ_path(vertex)`` is non-zero, as a sorted
        ``int64`` array: an anchored chain's members.  Read off
        :meth:`neighbor_row` unless the strategy holds the row whole."""
        row = self.neighbor_row(path, vertex_index, stats)
        return np.sort(row.indices.astype(np.int64))

    def _materialize_block(
        self,
        path: MetaPath,
        vertex_indices: np.ndarray,
        stats: ExecutionStats | None,
    ) -> sparse.csr_matrix:
        """One bulk block of ``φ_path`` rows (1 to :data:`BLOCK_ROWS` of them).

        ``vertex_indices`` are in range for ``path.source``; the result
        holds one row per index, in request order, and need not be
        canonical.
        """
        raise NotImplementedError

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

        Raises
        ------
        MetaPathError
            If any index is outside ``path.source``'s vertex range.
        """
        width = self.network.num_vertices(path.target)
        indices = self._checked_indices(path, vertex_indices)
        if indices.size == 0:
            return sparse.csr_matrix((0, width), dtype=np.float64)
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
        rows = _canonical(stacked)
        check_exact(rows.data, path, "path counts")
        return rows

    def _checked_indices(self, path, vertex_indices) -> np.ndarray:
        """``vertex_indices`` as int64, all within ``path.source``'s range."""
        indices = np.asarray(vertex_indices, dtype=np.int64)
        if indices.size:
            low, high = int(indices.min()), int(indices.max())
            if low < 0 or high >= self.network.num_vertices(path.source):
                bad = low if low < 0 else high
                raise MetaPathError(
                    f"vertex index {bad} out of range for type {path.source!r}"
                )
        return indices

    def visibilities(
        self,
        path: MetaPath,
        vertex_indices: Sequence[int],
        stats: ExecutionStats | None = None,
    ) -> np.ndarray:
        """``‖φ_path(v)‖²`` per requested vertex — a property of the path and
        the vertex, never of the query — from :meth:`neighbor_matrix` rows,
        at most :data:`BLOCK_ROWS` of them held at once.  Refused, naming
        the path, once one reaches 2⁵³ (:func:`check_exact`)."""
        indices = self._checked_indices(path, vertex_indices)
        result = np.empty(len(indices), dtype=np.float64)
        for start in range(0, len(indices), BLOCK_ROWS):
            block = indices[start:start + BLOCK_ROWS]
            result[start:start + BLOCK_ROWS] = row_visibilities(
                self.neighbor_matrix(path, block, stats)
            )
        check_exact(result, path, "visibilities")
        return result

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


class _CoverageStrategy(MaterializationStrategy):
    """The one materialization routine, driven by an index's coverage.

    See the module docstring for the routine and its accounting rule.
    Subclasses differ only in the :class:`Rung` they construct.
    """

    can_propagate = True

    def __init__(self, network, rung: Rung | None) -> None:
        super().__init__(network)
        self._rung = rung

    @property
    def rung(self) -> Rung:
        return self._rung

    @property
    def index(self) -> MetaPathIndex:
        return self.rung.index

    def tolerate_stale(self) -> None:
        """Let calls in flight finish on this index after the network
        version moves (the hot-swap's retirement of an engine)."""
        self._rung = replace(self.rung, allow_stale=True)

    def index_size_bytes(self) -> int:
        return self.index.size_bytes()

    def answers_by_lookup(self, path: MetaPath) -> bool:
        # PM up to one full length-2 segment: one gather from the index (or
        # from an adjacency matrix), no product chained after it.
        return path.length <= 2 and self.rung.requires_full_index

    def connectivity_sums(self, path, candidates, reference, stats=None) -> np.ndarray:
        """:func:`~repro.metapath.materialize.connectivity_sums` over the
        operands the rung holds: a segment the index stores in full is one
        hop over that matrix (PM), every other one two adjacency hops (SPM's
        partial rows are no operand).  Refused like a row request when the
        index is stale; a stale-tolerated index supplies no operand, since
        its matrices no longer match the network's sizes.  A stored hop
        passes the ``matrix_multiply`` point as :meth:`_expand` does for the
        same operand; one deadline check per hop.  The rows a hop fetches
        are ``propagated_vectors``, the time scoring time."""
        rung = self.rung  # once: a concurrent demotion never mixes two indexes
        rung.check_fresh(self.network)
        started = time.perf_counter()
        fetched: list[int] = []

        def on_hop(rows: int) -> None:
            check_deadline("meta-path propagation")
            fetched.append(int(rows))

        def stored(segment: MetaPath) -> sparse.csr_matrix | None:
            if rung.built_version != self.network.version:
                return None
            matrix = rung.index.full_matrix(segment)
            if matrix is not None:
                faultinject.check("matrix_multiply")
            return matrix

        candidates = self._checked_indices(path, candidates)
        reference = self._checked_indices(path, reference)
        sums = connectivity_sums(
            self.network, path, candidates, reference, on_hop, stored
        )
        if stats is not None:
            stats.propagated_vectors += sum(fetched)
            stats.timer.add(PHASE_SCORING, time.perf_counter() - started)
        return sums

    def _segment_product(self, segment: MetaPath) -> sparse.csr_matrix:
        """The full count matrix of a length-2 ``segment``, cache-assisted.

        Consults :attr:`subpath_cache` (keyed by the current network
        version); on a miss the product is computed and offered back.
        Counts are exact integers in float64, so substituting the cached
        ``A₁ @ A₂`` for the two chained hops is byte-identical — the
        property ``tests/properties`` pins.  The cache's fault points are
        self-healing, so consulting it cannot make a strategy raise.
        """
        version = self.network.version
        matrix = self.subpath_cache.get(segment, version)
        if matrix is None:
            matrix = materialize_segment(self.network, segment)
            self.subpath_cache.put(segment, version, matrix)
        return matrix

    @staticmethod
    def _missing(rung: Rung, segment: MetaPath) -> ExecutionError:
        return ExecutionError(
            f"{rung.name.upper()} index is missing the matrix for {segment}"
        )

    def _expand(
        self, rung: Rung, block: sparse.csr_matrix, segment: MetaPath
    ) -> sparse.csr_matrix:
        """``block @ M_segment`` through the cheapest operand held."""
        matrix = rung.index.full_matrix(segment)
        if matrix is not None:
            # The pre-multiplied operand: one product instead of two hops.
            faultinject.check("matrix_multiply")
            return block @ matrix
        if rung.requires_full_index:
            raise self._missing(rung, segment)
        if self.subpath_cache is not None:
            return block @ self._segment_product(segment)
        return (
            block
            @ self.network.adjacency(segment.types[0], segment.types[1])
            @ self.network.adjacency(segment.types[1], segment.types[2])
        )

    def _first_segment(
        self, rung: Rung, segment: MetaPath, vertex_indices: np.ndarray
    ) -> tuple[sparse.csr_matrix, int, float, float]:
        """Rows of the first ``segment``, split by the index's coverage.

        Covered vertices are one gather of stored rows, the rest one
        product.  Returns ``(block, index hits, gather seconds, product
        seconds)``.
        """
        source_width = self.network.num_vertices(segment.source)
        coverage = rung.index.coverage_mask(segment, source_width)
        if coverage is None:
            faultinject.check("matrix_multiply")
            hit_mask = np.ones(len(vertex_indices), dtype=bool)
        else:
            hit_mask = coverage[vertex_indices]
        hit_positions = np.flatnonzero(hit_mask)
        parts: list[tuple[np.ndarray, sparse.csr_matrix]] = []
        gather_seconds = product_seconds = 0.0
        if hit_positions.size:
            started = time.perf_counter()
            hits = rung.index.gather_rows(segment, vertex_indices[hit_mask])
            parts.append((hit_positions, hits))
            gather_seconds = time.perf_counter() - started
        if hit_positions.size < len(vertex_indices):
            started = time.perf_counter()
            misses = _selection_matrix(vertex_indices[~hit_mask], source_width)
            misses = self._expand(rung, misses, segment).tocsr()
            parts.append((np.flatnonzero(~hit_mask), misses))
            product_seconds = time.perf_counter() - started
        block = _stitch_rows(parts, len(vertex_indices))
        return block, int(hit_positions.size), gather_seconds, product_seconds

    def _covered_elements(
        self, rung: Rung, segment: MetaPath, block: sparse.csr_matrix
    ) -> int:
        """How many stored elements of ``block`` fetch a covered ``segment`` row.

        Products and gathers never store duplicates, so the element count
        needs no canonicalization; full and empty coverage need no look at
        the column indices either.
        """
        coverage = rung.index.coverage_mask(segment, block.shape[1])
        if coverage is None:
            return int(block.nnz)
        if not coverage.any():
            return 0
        return int(np.count_nonzero(coverage[block.indices]))

    def neighbor_support(self, path, vertex_index, stats=None) -> np.ndarray:
        """A path :meth:`answers_by_lookup` names is read as one slice of
        the row stored whole — the full matrix of a length-2 path, the
        adjacency of one hop — through its ``indptr``, with no row object.
        The row route's checks, fault point, deadline check and counters
        come in its order; every other path takes that route."""
        if path.length == 0 or not self.answers_by_lookup(path):
            return super().neighbor_support(path, vertex_index, stats)
        self._checked_indices(path, [vertex_index])
        check_deadline("neighbor-block materialization")
        path.validate(self.network.schema)
        rung = self.rung  # once: a concurrent demotion never mixes two indexes
        rung.check_fresh(self.network)
        started = time.perf_counter()
        if path.length == 1:
            matrix = self.network.adjacency(path.source, path.target)
        else:
            matrix = rung.index.full_matrix(path)
            if matrix is None:
                raise self._missing(rung, path)
            faultinject.check("matrix_multiply")
            if vertex_index >= matrix.shape[0]:  # a stale-tolerated index
                raise ExecutionError(
                    f"gather_rows: no stored row for some vertex of {path}"
                )
        # Stored rows hold neither duplicates nor zeros (edge counts are
        # positive, products sum them), so the slice is the row's support.
        start, stop = matrix.indptr[vertex_index], matrix.indptr[vertex_index + 1]
        support = np.sort(matrix.indices[start:stop].astype(np.int64))
        if stats is not None:
            # The row route's one-row block: a stored length-2 row is one
            # indexed fetch, one hop one traversed row, and the time is
            # split between the two phases by those counts.
            indexed = int(path.length == 2)
            elapsed = time.perf_counter() - started
            stats.materialized_blocks += 1
            stats.indexed_vectors += indexed
            stats.traversed_vectors += 1 - indexed
            stats.timer.add(PHASE_INDEXED, elapsed * indexed)
            stats.timer.add(PHASE_NOT_INDEXED, elapsed * (1 - indexed))
        return support

    def _materialize_block(self, path, vertex_indices, stats):
        path.validate(self.network.schema)
        rung = self.rung  # once: a concurrent demotion never splits a block
        rung.check_fresh(self.network)
        segments, tail = decompose_length2(path)
        if segments:
            block, indexed, gather_seconds, product_seconds = self._first_segment(
                rung, segments[0], vertex_indices
            )
        else:
            source_width = self.network.num_vertices(path.source)
            block = _selection_matrix(vertex_indices, source_width)
            indexed, gather_seconds, product_seconds = 0, 0.0, 0.0
        fetched = len(vertex_indices)
        started = time.perf_counter()
        for segment in segments[1:]:
            check_deadline("segment block expansion")
            if stats is not None:
                indexed += self._covered_elements(rung, segment, block)
                fetched += int(block.nnz)
            block = self._expand(rung, block, segment)
        if tail is not None:
            block = block @ self.network.adjacency(tail.types[0], tail.types[1])
        if stats is not None:
            stats.indexed_vectors += indexed
            stats.traversed_vectors += fetched - indexed
            # Everything after the first segment is shared work: split it
            # between the two phases in proportion to the block's counts.
            shared = time.perf_counter() - started
            fraction = indexed / fetched
            stats.timer.add(PHASE_INDEXED, gather_seconds + shared * fraction)
            stats.timer.add(
                PHASE_NOT_INDEXED, product_seconds + shared * (1.0 - fraction)
            )
        return block.tocsr()


class BaselineStrategy(_CoverageStrategy):
    """Unindexed execution: nothing is covered (paper §6.1).

    Every segment is a selection-gather product ``S @ A₁ @ A₂ @ …`` over
    the adjacency matrices, which read live data: the strategy is never
    stale, and with no index matrix to multiply it reaches no fault point —
    the degradation ladder's infallible floor.
    """

    name = "baseline"

    def __init__(self, network: HeterogeneousInformationNetwork) -> None:
        super().__init__(network, Rung.of(network, "baseline"))


class PMStrategy(_CoverageStrategy):
    """Full length-2 pre-materialization: everything is covered (§6.2, PM).

    Parameters
    ----------
    network:
        The network to execute over.
    index:
        A pre-built index; when ``None`` every legal length-2 meta-path is
        materialized up front (the build cost is paid here, not at query
        time, matching the paper's offline indexing setting).  A segment
        the index holds no full matrix for raises
        :class:`~repro.exceptions.ExecutionError` at query time.
    """

    name = "pm"

    def __init__(
        self,
        network: HeterogeneousInformationNetwork,
        index: MetaPathIndex | None = None,
        *,
        allow_stale: bool = False,
    ) -> None:
        if index is None:
            index = build_index(network, "pm")
        rung = Rung.of(network, "pm", index, allow_stale=allow_stale)
        super().__init__(network, rung)


class SPMStrategy(_CoverageStrategy):
    """Selective pre-materialization: some vertices are covered (§6.2, SPM).

    Index rows exist only for a selected vertex subset; the rows of other
    vertices are computed.  Handed an empty index this is the baseline, and
    handed a full one it is PM — in bytes and in counters.

    Parameters
    ----------
    index:
        A pre-built index; when ``None`` one is built for ``selected``.
    selected:
        Vertices to index when no pre-built index is supplied.
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
        if index is None:
            index = build_index(network, "spm", selected)
        rung = Rung.of(network, "spm", index, allow_stale=allow_stale)
        super().__init__(network, rung)


def strategy_name(name: str) -> str:
    """``name`` as the engine spells it — the one place a strategy name is
    case-folded, and the one place an unknown one is refused."""
    lowered = name.lower()
    if lowered not in DEGRADATION_LADDER:
        raise ExecutionError(
            f"unknown strategy {name!r}; expected baseline, pm, or spm"
        )
    return lowered


def build_index(
    network: HeterogeneousInformationNetwork,
    name: str,
    selected: Iterable[VertexId] | None = None,
) -> MetaPathIndex:
    """The in-RAM index rung ``"pm"`` or ``"spm"`` serves from: every legal
    length-2 matrix, or the length-2 rows of ``selected``."""
    if name == "pm":
        return build_pm_index(network)
    return build_spm_index(network, selected or [])[0]


def make_strategy(
    network: HeterogeneousInformationNetwork,
    name: str,
    *,
    index: MetaPathIndex | None = None,
    selected: Iterable[VertexId] | None = None,
    resilience: "ResiliencePolicy | None" = None,
) -> MaterializationStrategy:
    """Instantiate a strategy by name: ``"baseline"``, ``"pm"``, or ``"spm"``.

    Parameters
    ----------
    index:
        Pre-built index for ``"pm"``/``"spm"`` (built on demand otherwise).
    selected:
        SPM only: vertices to index when no pre-built index is supplied.
    resilience:
        A :class:`~repro.engine.resilience.ResiliencePolicy`.  When it allows
        degradation the strategy is the degradation ladder from the named
        rung down, starting from ``index`` when one is given.
    """
    name = strategy_name(name)
    if resilience is not None and resilience.allow_degraded:
        from repro.engine.resilience import FallbackStrategy

        return FallbackStrategy(
            network,
            ladder=DEGRADATION_LADDER[DEGRADATION_LADDER.index(name):],
            policy=resilience,
            spm_selected=selected,
            index=index,
        )
    if name == "baseline":
        return BaselineStrategy(network)
    if name == "pm":
        return PMStrategy(network, index=index)
    return SPMStrategy(network, index=index, selected=selected)
