"""The user-facing outlier-detection facade.

:class:`OutlierDetector` bundles a network, a materialization strategy, and
an outlierness measure behind one ``detect(query_text)`` call — the
"query-based outlier detection system" of the paper, in library form.

The facade adds no execution semantics of its own: strategy names mean what
:func:`~repro.engine.strategies.make_strategy` says (ladder included),
:func:`configured_strategy` is the one reading of the constructor settings
it shares with the serving layer's engine handle, and
:meth:`OutlierDetector.detect_with_features` validates and retrieves its
sets exactly as a full query's (``validate_sets`` and
:meth:`~repro.engine.executor.QueryExecutor.resolve_sets`).

Examples
--------
>>> from repro import OutlierDetector
>>> from repro.datagen.fixtures import figure1_network
>>> detector = OutlierDetector(figure1_network())
>>> result = detector.detect(
...     'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
...     'JUDGED BY author.paper.venue TOP 2;')
>>> [entry.rank for entry in result]
[1, 2]
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.measures import Measure
from repro.core.results import OutlierResult
from repro.engine.executor import BatchExecution, QueryExecutor
from repro.engine.index import MetaPathIndex
from repro.engine.optimizer import select_frequent_vertices
from repro.engine.plan import QueryPlan, explain
from repro.engine.strategies import (
    MaterializationStrategy,
    make_strategy,
    strategy_name,
)
from repro.exceptions import ExecutionError
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.query.ast import Query
from repro.query.parser import parse_set_expression
from repro.query.semantics import validate_sets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.deadline import Deadline
    from repro.engine.resilience import ResiliencePolicy

__all__ = ["OutlierDetector", "configured_strategy"]


def configured_strategy(
    network: HeterogeneousInformationNetwork,
    strategy: str | MaterializationStrategy,
    *,
    index: MetaPathIndex | None = None,
    spm_workload: Sequence[str | Query] | None = None,
    spm_threshold: float = 0.01,
    resilience: "ResiliencePolicy | None" = None,
) -> MaterializationStrategy:
    """The strategy an :class:`OutlierDetector` or a serving
    :class:`~repro.service.handle.EngineHandle` runs on, from the settings
    both take: an instance as given, a name through
    :func:`~repro.engine.strategies.make_strategy`, and SPM's vertices
    selected from ``spm_workload`` when no ``index`` is given."""
    if isinstance(strategy, MaterializationStrategy):
        return strategy
    selected = None
    if index is None and spm_workload is not None and strategy_name(strategy) == "spm":
        selected = select_frequent_vertices(network, spm_workload, spm_threshold)
    return make_strategy(
        network, strategy, index=index, selected=selected, resilience=resilience
    )


class OutlierDetector:
    """Query-based outlier detection over one heterogeneous network.

    Parameters
    ----------
    network:
        The heterogeneous information network to query.
    strategy:
        ``"baseline"`` (default), ``"pm"``, ``"spm"``, or a pre-built
        :class:`~repro.engine.strategies.MaterializationStrategy` instance.
        ``"pm"`` builds the full length-2 index up front.
    measure:
        Outlierness measure name (``"netout"``, ``"pathsim"``, ``"cossim"``)
        or instance.  Lower scores mean stronger outliers.
    index:
        Optional pre-built index for ``"pm"``/``"spm"``.
    spm_workload, spm_threshold:
        For ``"spm"`` without a pre-built index: the initialization query
        set and relative-frequency threshold used to select vertices to
        index (paper §6.2; threshold defaults to the paper's 0.01).
    combine:
        Multi-meta-path combination mode: ``"score"`` (default), ``"rank"``,
        or ``"connectivity"`` — see
        :class:`~repro.engine.executor.QueryExecutor`.
    collect_stats:
        Attach per-phase execution statistics to every result.
    resilience:
        Optional :class:`~repro.engine.resilience.ResiliencePolicy`.  When
        it allows degradation (and ``strategy`` is a name, not a pre-built
        instance), the detector executes through the degradation ladder —
        the requested rung, starting from ``index`` when one is given,
        falling back toward on-the-fly counting on index-build or lookup
        failure — under the policy's per-query deadline, memory
        guardrails, retry, and circuit-breaker settings.  Degraded answers
        come back flagged ``degraded=True`` rather than failing.
    """

    def __init__(
        self,
        network: HeterogeneousInformationNetwork,
        *,
        strategy: str | MaterializationStrategy = "baseline",
        measure: Measure | str = "netout",
        index: MetaPathIndex | None = None,
        spm_workload: Sequence[str | Query] | None = None,
        spm_threshold: float = 0.01,
        combine: str = "score",
        collect_stats: bool = True,
        resilience: "ResiliencePolicy | None" = None,
    ) -> None:
        self.network = network
        self.strategy = configured_strategy(
            network,
            strategy,
            index=index,
            spm_workload=spm_workload,
            spm_threshold=spm_threshold,
            resilience=resilience,
        )
        self._executor = QueryExecutor(
            self.strategy,
            measure,
            combine=combine,
            collect_stats=collect_stats,
            resilience=resilience,
        )

    @property
    def measure_name(self) -> str:
        return self._executor.measure.name

    def detect(
        self, query: str | Query, *, deadline: "Deadline | None" = None
    ) -> OutlierResult:
        """Execute an outlier query and return the ranked result.

        ``deadline`` optionally overrides the per-call time budget (the
        resilience policy's timeout otherwise applies) — the query service
        uses this to enforce per-request deadlines over a shared detector.
        """
        return self._executor.execute(query, deadline=deadline)

    def detect_with_features(
        self,
        candidates: str,
        features,
        *,
        reference: str | None = None,
        top_k: int = 10,
    ) -> OutlierResult:
        """Score a queried candidate set with *custom* vertex features.

        The paper's §8 "alternative query language design": users may want
        to characterize vertices by functions that are not meta-path based.
        This keeps the declarative set language for ``candidates`` /
        ``reference`` but takes the characterization from the caller.

        Parameters
        ----------
        candidates:
            A set expression in the query language (e.g.
            ``'author{"X"}.paper.author'``).
        features:
            Either a callable ``f(network, member_type, vertex_indices) ->
            (n x d) array-like`` producing one feature row per vertex in
            order, or a pre-computed matrix over *all* vertices of the
            member type (rows are selected by index).
        reference:
            Optional set expression for the reference set (defaults to the
            candidate set).
        top_k:
            Number of outliers to return.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.datagen.fixtures import figure1_network
        >>> net = figure1_network()
        >>> detector = OutlierDetector(net)
        >>> def paper_count(network, member_type, indices):
        ...     return np.array(
        ...         [[network.degree(VertexId(member_type, i), "paper")]
        ...          for i in indices])
        >>> result = detector.detect_with_features("author", paper_count, top_k=1)
        >>> len(result)
        1
        """
        import numpy as np
        from scipy import sparse as _sparse

        if top_k < 1:
            raise ExecutionError(f"top_k must be >= 1, got {top_k}")
        candidate_ast = parse_set_expression(candidates)
        reference_ast = None if reference is None else parse_set_expression(reference)
        validate_sets(self.network.schema, candidate_ast, reference_ast)
        member_type, candidate_indices, reference_indices = (
            self._executor.resolve_sets(candidate_ast, reference_ast)
        )

        def rows_for(indices):
            if callable(features):
                matrix = features(self.network, member_type, indices.tolist())
            else:
                full = features
                matrix = (
                    full[indices, :]
                    if _sparse.issparse(full)
                    else np.asarray(full, dtype=float)[indices, :]
                )
            if _sparse.issparse(matrix):
                matrix = matrix.tocsr()
                rows = matrix.shape[0]
            else:
                matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
                rows = matrix.shape[0]
            if rows != len(indices):
                raise ExecutionError(
                    f"feature rows ({rows}) do not match the vertex count "
                    f"({len(indices)})"
                )
            return matrix

        phi_candidates = rows_for(candidate_indices)
        if reference_indices is candidate_indices:
            phi_reference = phi_candidates
        else:
            phi_reference = rows_for(reference_indices)
        scores = self._executor.measure.score(phi_candidates, phi_reference)

        return OutlierResult.from_columns(
            member_type,
            candidate_indices,
            scores,
            self.network.vertex_names(member_type),
            top_k=top_k,
            reference_count=len(reference_indices),
            measure=self._executor.measure.name,
        )

    def detect_many(self, queries: Sequence[str | Query]) -> "BatchExecution":
        """Execute a query set; see :meth:`QueryExecutor.execute_many`.

        Returns a :class:`~repro.engine.executor.BatchExecution` — unpacks
        as ``(results, stats)`` and carries per-query ``errors`` keyed by
        query index.
        """
        return self._executor.execute_many(list(queries))

    def explain(self, query: str | Query) -> QueryPlan:
        """The execution plan for ``query`` under this detector's strategy."""
        return explain(self.strategy, query)

    def index_size_bytes(self) -> int:
        """Bytes held by this detector's index (0 for the baseline)."""
        return self.strategy.index_size_bytes()
