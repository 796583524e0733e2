"""A shared, long-lived engine: one network + index, many worker threads.

The batch library builds one :class:`~repro.engine.detector.OutlierDetector`
per caller and throws it away; a service cannot afford that — PM/SPM index
construction is exactly the cost the paper's Section 6 works to amortize.
:class:`EngineHandle` loads a network and builds its strategy **once**, then
shares the immutable pieces (adjacency matrices, index matrices, measure)
across every worker thread.

A generation of the engine is one
:class:`~repro.engine.executor.QueryExecutor` over the row cache, over the
strategy :func:`~repro.engine.detector.configured_strategy` makes of the
same settings an :class:`~repro.engine.detector.OutlierDetector` takes, so
a served answer is the library's answer by construction.

Thread-safety contract
----------------------
Everything mutable is per-request: execution statistics are freshly
allocated inside each ``execute`` call, and deadlines live in
thread-local scopes (:mod:`repro.engine.deadline`).  The shared pieces are
read-only after :meth:`warm`, which forces every lazy structure — adjacency
matrices rebuilt on first access, a ladder's first rung — to materialize
before the first concurrent request can race on it.  Three shared mutable
structures carry their own locks: the optional
:class:`~repro.engine.caching.CachingStrategy` row cache, a ladder's
installed rung (:class:`~repro.engine.resilience.FallbackStrategy`), which
a demotion replaces whole, and the thread backend's served PM index, a
:class:`~repro.engine.index.LazyPMIndex`, which forms a missing matrix
under its lock and publishes its stored matrices whole, so reading a
built matrix takes no lock.  Warm-up builds none of its matrices: each is
formed by the first request that reads it.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro.core.measures import Measure
from repro.core.results import OutlierResult
from repro.engine.caching import CachingStrategy, SubpathCache
from repro.engine.detector import configured_strategy
from repro.engine.executor import BatchExecution, QueryExecutor
from repro.engine.index import MetaPathIndex
from repro.engine.strategies import MaterializationStrategy
from repro.exceptions import ServiceError
from repro.hin.network import HeterogeneousInformationNetwork
from repro.hin.storage import csr_from_buffers
from repro.query.ast import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.deadline import Deadline
    from repro.engine.resilience import ResiliencePolicy

__all__ = ["EngineHandle"]


class EngineHandle:
    """One warmed engine shared by a pool of worker threads.

    Parameters
    ----------
    network:
        The network to serve.  The handle snapshots its version; results
        cached against an older version are invalidated automatically.
    strategy, measure, combine, index, spm_workload, spm_threshold,
    resilience:
        As for :class:`~repro.engine.detector.OutlierDetector` — the handle
        adds sharing and warm-up, not new execution semantics.
    row_cache_rows:
        When positive, wrap the strategy in a (thread-safe) LRU row cache
        of this many ``(meta-path, vertex)`` rows, so hub vertices touched
        by many requests materialize once.  ``0`` disables the row cache.
    collect_stats:
        Attach per-phase stats to each result (per-request objects, safe
        under concurrency).

    Examples
    --------
    >>> from repro.datagen.fixtures import figure1_network
    >>> handle = EngineHandle(figure1_network(), strategy="pm")
    >>> result = handle.execute(
    ...     'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    ...     'JUDGED BY author.paper.venue TOP 3;')
    >>> len(result) <= 3
    True
    """

    def __init__(
        self,
        network: HeterogeneousInformationNetwork,
        *,
        strategy: str | MaterializationStrategy = "pm",
        measure: Measure | str = "netout",
        combine: str = "score",
        index=None,
        spm_workload: Sequence[str | Query] | None = None,
        spm_threshold: float = 0.01,
        resilience: "ResiliencePolicy | None" = None,
        row_cache_rows: int = 4096,
        collect_stats: bool = True,
        subpath_cache_mb: float = 0.0,
    ) -> None:
        self.network = network
        # Construction record: everything but the network and the index
        # (which travel as worker-segment arrays).  The process backend
        # ships it whole to its workers, and a hot-swap rebuilds the engine
        # from it, so a setting added here reaches both.
        self._init_spec = {
            "strategy": strategy,
            "measure": measure,
            "combine": combine,
            "resilience": resilience,
            "row_cache_rows": row_cache_rows,
            "collect_stats": collect_stats,
            "subpath_cache_mb": subpath_cache_mb,
        }
        self.subpath_cache: SubpathCache | None = None
        self.executor, self.row_cache = self._generation(
            strategy, index, spm_workload=spm_workload, spm_threshold=spm_threshold
        )
        #: Counts completed hot-swaps; 0 for the index the handle was born
        #: with.  The process backend reuses the same counter to tag its
        #: worker-segment generations.
        self.index_generation = 0
        self.last_swap_unix: float | None = None
        self.warm()
        if subpath_cache_mb > 0:
            self.attach_subpath_cache(subpath_cache_mb)

    def _generation(
        self, strategy, index, **selection
    ) -> "tuple[QueryExecutor, CachingStrategy | None]":
        """One engine generation: the executor over ``index`` (or a fresh
        build), with the shared sub-path cache, behind the locked LRU row
        cache.  Start-up and every hot-swap come through here."""
        spec = self._init_spec
        resilience = spec["resilience"]
        strategy = configured_strategy(
            self.network, strategy, index=index, resilience=resilience, **selection
        )
        strategy.subpath_cache = self.subpath_cache
        row_cache = None
        if spec["row_cache_rows"] > 0:
            strategy = row_cache = CachingStrategy(
                strategy, max_rows=spec["row_cache_rows"]
            )
        executor = QueryExecutor(
            strategy,
            spec["measure"],
            combine=spec["combine"],
            collect_stats=spec["collect_stats"],
            resilience=resilience,
        )
        return executor, row_cache

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Force every lazily-built shared structure to materialize now.

        Adjacency matrices rebuild on first access and the resilience
        ladder builds its first rung on first use; both are benign
        single-threaded but race under a worker pool.  Warming from the
        loading thread makes the shared state effectively immutable before
        the first concurrent request arrives.
        """
        schema = self.network.schema
        for edge_type in schema.edge_types:
            self.network.adjacency(edge_type.source, edge_type.target)
        # Reading a ladder's rung builds its first one (and runs any
        # demotions that causes) here, once.
        _ = self.executor.strategy.rung

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The served network's mutation counter (cache invalidation key)."""
        return self.network.version

    @property
    def fingerprint(self) -> str:
        """Execution-semantics identity: two handles with equal fingerprints
        and versions return identical results for the same query."""
        executor = self.executor
        return f"{executor.strategy.name}/{executor.measure.name}/{executor.combine}"

    @property
    def measure_name(self) -> str:
        return self.executor.measure.name

    def index_size_bytes(self) -> int:
        """Bytes held by the shared index (plus any row cache)."""
        return self.executor.strategy.index_size_bytes()

    # ------------------------------------------------------------------
    # Adaptive indexing: sub-path cache + atomic index hot-swap
    # ------------------------------------------------------------------
    def attach_subpath_cache(self, megabytes: float) -> None:
        """Attach a shared length-2 sub-path product cache to the engine.

        Idempotent: a second call (or ``megabytes <= 0``) is a no-op.  The
        cache is installed on the *concrete* strategy instance so every
        blocked materialization — including miss traversal inside SPM —
        reuses segment products across concurrent queries.
        """
        if megabytes <= 0 or self.subpath_cache is not None:
            return
        self.subpath_cache = SubpathCache(max_bytes=int(megabytes * 1024 * 1024))
        self._init_spec["subpath_cache_mb"] = megabytes
        self._concrete_strategy().subpath_cache = self.subpath_cache

    def swap_index(self, index: MetaPathIndex) -> int:
        """Atomically replace the served SPM index with ``index``.

        The hot-swap protocol, in publish-safe order:

        1. The old engine's rung is marked stale-tolerant, so in-flight
           queries finish on the old index instead of tripping the
           staleness guard when the version moves.
        2. The network version is bumped — from this instant the result
           cache treats old-version entries as invalid, and the sub-path
           cache clears itself on first touch.  (Caching an old-index
           result under the new version during the overlap window is
           harmless: scores are byte-identical by construction.)
        3. A generation over ``index`` is built as at start-up (a ladder
           engine gets a fresh, undegraded ladder) and published with one
           attribute assignment — readers see either the whole old engine
           or the whole new one, never a mix.

        Only meaningful while an SPM index is served (the adaptive loop's
        target); raises :class:`~repro.exceptions.ServiceError` otherwise.
        Returns the new network version.
        """
        self.require_spm("index hot-swap")
        self._concrete_strategy().tolerate_stale()
        version = self.network.bump_version()
        executor, row_cache = self._generation("spm", index)
        # Atomic publish: one attribute write swaps the whole engine.
        self.executor = executor
        self.row_cache = row_cache
        self.index_generation += 1
        self.last_swap_unix = time.time()
        return version

    def require_spm(self, what: str) -> None:
        """Raise :class:`~repro.exceptions.ServiceError` unless the engine
        serves an SPM index, naming ``what`` needs it."""
        serves, _ = self._served()
        if serves != "spm":
            raise ServiceError(
                f"{what} requires the spm strategy, but this engine "
                f"serves {serves!r}"
            )

    def index_metadata(self) -> dict:
        """JSON-ready description of the served index for observability.

        ``row_coverage`` is the fraction of all possible length-2 rows
        (every legal length-2 meta-path × its source-type vertex count)
        the index can answer by lookup: 1.0 for PM, the selected fraction
        for SPM, 0.0 for the baseline's empty index, ``None`` for a custom
        strategy that holds no index.
        """
        strategy, index = self._served()
        metadata = {
            "strategy": strategy,
            "network_version": self.network.version,
            "generation": self.index_generation,
            "last_swap_unix": self.last_swap_unix,
            "coverage": None,
            "row_coverage": None,
            "subpath_cache": (
                self.subpath_cache.snapshot()
                if self.subpath_cache is not None
                else None
            ),
        }
        if index is not None:
            coverage = index.coverage_summary()
            possible = sum(
                self.network.num_vertices(types[0])
                for types in self.network.schema.length2_metapaths()
            )
            metadata["coverage"] = coverage
            metadata["row_coverage"] = (
                coverage["rows"] / possible if possible else 0.0
            )
        return metadata

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, query: str | Query, *, deadline: "Deadline | None" = None
    ) -> OutlierResult:
        """Run one query against the shared engine (any thread)."""
        return self.executor.execute(query, deadline=deadline)

    def execute_many(self, queries: Sequence[str | Query]) -> BatchExecution:
        """Run a batch against the shared engine (any thread)."""
        return self.executor.execute_many(list(queries))

    # ------------------------------------------------------------------
    # Worker-segment export / attach (process backend)
    # ------------------------------------------------------------------
    def _concrete_strategy(self) -> MaterializationStrategy:
        """The strategy behind the row cache: the one holding the index."""
        strategy = self.executor.strategy
        return strategy.inner if isinstance(strategy, CachingStrategy) else strategy

    def _served(self) -> "tuple[str, MetaPathIndex | None]":
        """Name and index of what answers queries: a coverage strategy's
        (a ladder's installed) rung, else the custom strategy's name."""
        concrete = self._concrete_strategy()
        rung = concrete.rung
        return (concrete.name, None) if rung is None else (rung.name, rung.index)

    def export_shared(self) -> "tuple[dict, dict]":
        """Flatten the warmed engine into ``(spec, arrays)``.

        ``spec`` is a picklable description (schema, vertex registries,
        array layout, detector settings); ``arrays`` maps names to the CSR
        buffers of every adjacency matrix and — when the active strategy is
        indexed — every index matrix.  The process backend commits the
        arrays as its worker segment, an array store;
        :meth:`from_shared` inverts this in a worker process over the
        store's read-only memmap views.

        A ladder (``resilience.allow_degraded``) exports its installed
        **rung**: each worker builds its own ladder starting from that
        index; the parent's demotion history stays in the parent (see
        ``docs/service.md``).
        """
        arrays: dict = {}
        adjacency_entries: list[dict] = []
        schema = self.network.schema
        seen: set[tuple[str, str]] = set()
        for edge_type in schema.edge_types:
            pair = (edge_type.source, edge_type.target)
            if pair in seen:
                continue
            seen.add(pair)
            matrix = self.network.adjacency(*pair)
            # No-op when already canonical; guarantees the attach side may
            # mark its read-only views canonical (see engine.index).
            matrix.sum_duplicates()
            prefix = f"adj:{pair[0]}:{pair[1]}"
            arrays[f"{prefix}:data"] = matrix.data
            arrays[f"{prefix}:indices"] = matrix.indices
            arrays[f"{prefix}:indptr"] = matrix.indptr
            adjacency_entries.append(
                {
                    "source": pair[0],
                    "target": pair[1],
                    "shape": [int(s) for s in matrix.shape],
                    "prefix": prefix,
                }
            )

        strategy, index = self._served()
        index_manifest = None
        if index is not None:
            index_manifest, index_arrays = index.export_arrays()
            arrays.update(index_arrays)

        spec = {
            "schema": schema,
            "names": {t: self.network.vertex_names(t) for t in schema.vertex_types},
            "attributes": {
                t: self.network.vertex_attributes(t) for t in schema.vertex_types
            },
            "adjacency": adjacency_entries,
            "index_manifest": index_manifest,
            # Workers start from the rung the parent settled on, by name.
            "init": {**self._init_spec, "strategy": strategy},
            "num_edges": self.network.num_edges(),
            "version": self.network.version,
            "fingerprint": self.fingerprint,
        }
        # Fail fast in the parent if anything in the spec cannot cross a
        # spawn boundary (an unpicklable custom measure or policy would
        # otherwise kill every worker at start-up with a cryptic error).
        import pickle

        try:
            pickle.dumps(spec)
        except Exception as error:
            raise ServiceError(
                "engine spec is not picklable for the process backend "
                f"({error}); custom measures/policies must be importable "
                "module-level classes"
            ) from error
        return spec, arrays

    @classmethod
    def from_shared(cls, spec: dict, views: "dict") -> "EngineHandle":
        """Rebuild a serving handle from :meth:`export_shared` output.

        ``views`` holds (typically a worker segment's read-only memmap)
        arrays under the names assigned by :meth:`export_shared`; all CSR
        matrices are reconstructed as zero-copy wrappers over those buffers.
        """
        adjacency = {}
        for entry in spec["adjacency"]:
            prefix = entry["prefix"]
            adjacency[(entry["source"], entry["target"])] = csr_from_buffers(
                views[f"{prefix}:data"],
                views[f"{prefix}:indices"],
                views[f"{prefix}:indptr"],
                entry["shape"],
            )
        network = HeterogeneousInformationNetwork.from_prebuilt(
            spec["schema"],
            spec["names"],
            spec["attributes"],
            adjacency,
            num_edges=spec["num_edges"],
            version=spec["version"],
        )
        index = None
        if spec["index_manifest"] is not None:
            index = MetaPathIndex.from_arrays(spec["index_manifest"], views)
        return cls(network, index=index, **spec["init"])
