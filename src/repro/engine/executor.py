"""The query executor: parse → validate → evaluate → score → rank.

Implements the two-step execution of Section 6.1 — retrieve ``Sc``/``Sr``,
then compute outlierness — using the vectorized Equation 1 evaluation by
default.  Multiple feature meta-paths are handled the way Section 5.1
suggests: scores are computed per meta-path independently and combined as a
weighted average.

:meth:`QueryExecutor.validate` and :meth:`QueryExecutor.resolve_sets` are
the first two steps on their own: the progressive executor and the
detector's custom-feature scoring enter through them, the SPM workload
analyzer through the first.
"""

from __future__ import annotations

import time
import warnings
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from repro.core.measures import Measure, get_measure
from repro.core.results import OutlierResult
from repro.engine.deadline import Deadline, check_deadline, deadline_scope
from repro.engine.evaluator import SetEvaluator
from repro.engine.stats import PHASE_SCORING, ExecutionStats
from repro.engine.strategies import MaterializationStrategy
from repro.exceptions import (
    DeadlineExceededError,
    DegradedResultWarning,
    ExecutionError,
    QueryError,
    ReproError,
)
from repro.metapath.metapath import WeightedMetaPath
from repro.query.ast import Query, SetExpression
from repro.query.parser import parse_query
from repro.query.semantics import ValidatedQuery, validate_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.resilience import ResiliencePolicy

__all__ = ["QueryExecutor", "BatchExecution"]


class BatchExecution(tuple):
    """Outcome of :meth:`QueryExecutor.execute_many`.

    A 2-tuple ``(results, stats)`` — so existing ``results, stats = ...``
    unpacking keeps working — extended with ``errors``: per-query execution
    failures keyed by the query's index in the input list, so one bad query
    no longer aborts (or silently vanishes from) a batch.
    """

    results: "list[OutlierResult]"
    stats: ExecutionStats
    errors: "dict[int, ReproError]"

    def __new__(
        cls,
        results: list[OutlierResult],
        stats: ExecutionStats,
        errors: dict[int, ReproError],
    ) -> "BatchExecution":
        self = super().__new__(cls, (results, stats))
        self.results = results
        self.stats = stats
        self.errors = errors
        return self


class QueryExecutor:
    """Executes outlier queries over one network with one strategy.

    Parameters
    ----------
    strategy:
        Materialization strategy (Baseline / PM / SPM).
    measure:
        Outlierness measure instance or registry name (default NetOut).
    combine:
        How multiple feature meta-paths combine (Section 5.1 names the
        options and leaves the choice open):

        * ``"score"`` (default) — weighted average of per-path Ω scores;
        * ``"rank"`` — weighted average of per-path outlier *ranks*
          (robust to per-path scale differences);
        * ``"connectivity"`` — redefine connectivity as the weighted sum of
          per-path connectivities (neighbor vectors are concatenated with
          √weight scaling, then scored once).
    collect_stats:
        When true (default) each result carries per-phase
        :class:`~repro.engine.stats.ExecutionStats`.
    resilience:
        Optional :class:`~repro.engine.resilience.ResiliencePolicy`.  When
        set, every query runs under the policy's deadline, and an expired
        deadline mid-scoring may yield a *partial* result (fewer feature
        meta-paths than requested, ``degraded=True``) instead of raising,
        if the policy allows it.

    Examples
    --------
    >>> from repro.engine import BaselineStrategy, QueryExecutor
    >>> from repro.datagen.fixtures import figure1_network
    >>> executor = QueryExecutor(BaselineStrategy(figure1_network()))
    >>> result = executor.execute(
    ...     'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    ...     'JUDGED BY author.paper.venue TOP 3;')
    >>> len(result) <= 3
    True
    """

    COMBINE_MODES = ("score", "rank", "connectivity")

    def __init__(
        self,
        strategy: MaterializationStrategy,
        measure: Measure | str = "netout",
        *,
        combine: str = "score",
        collect_stats: bool = True,
        resilience: "ResiliencePolicy | None" = None,
    ) -> None:
        self.strategy = strategy
        self.network = strategy.network
        self.measure = get_measure(measure) if isinstance(measure, str) else measure
        if combine not in self.COMBINE_MODES:
            raise ExecutionError(
                f"unknown combine mode {combine!r}; expected one of "
                f"{self.COMBINE_MODES}"
            )
        self.combine = combine
        self.collect_stats = collect_stats
        self.resilience = resilience

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self, query: str | Query, *, deadline: Deadline | None = None
    ) -> OutlierResult:
        """Run ``query`` (text or AST) and return the ranked result.

        Parameters
        ----------
        deadline:
            Optional explicit per-call deadline; defaults to a fresh one
            from the executor's resilience policy (when configured).  The
            deadline is enforced cooperatively inside materialization and
            scoring loops and raises
            :class:`~repro.exceptions.DeadlineExceededError` on overrun —
            unless the policy allows partial results and at least one
            feature meta-path was already scored, in which case the partial
            ranking is returned with ``degraded=True``.
        """
        started = time.perf_counter()
        validated = self.validate(query)
        ast = validated.query
        stats = ExecutionStats() if self.collect_stats else None
        if deadline is None and self.resilience is not None:
            deadline = self.resilience.deadline()

        with deadline_scope(deadline):
            member_type, candidates, reference = self.resolve_sets(
                ast.candidates, ast.reference, stats
            )
            scores, per_feature, partial_reason = self._score(
                validated, candidates, reference, stats
            )

        if stats is not None:
            stats.wall_seconds = time.perf_counter() - started
        degradation_reason = self._degradation_reason(partial_reason)
        if degradation_reason is not None:
            warnings.warn(
                DegradedResultWarning(f"degraded result: {degradation_reason}"),
                stacklevel=2,
            )
        return OutlierResult.from_columns(
            member_type,
            candidates,
            scores,
            self.network.vertex_names(member_type),
            top_k=ast.top_k,
            reference_count=len(reference),
            measure=self.measure.name,
            stats=stats,
            feature_omega=per_feature,
            degraded=degradation_reason is not None,
            degradation_reason=degradation_reason,
        )

    def validate(self, query: str | Query) -> ValidatedQuery:
        """``query`` (text or AST) parsed and validated against the network's
        schema — the check every entry point runs before touching data."""
        ast = parse_query(query) if isinstance(query, str) else query
        return validate_query(self.network.schema, ast)

    def resolve_sets(
        self,
        candidates: SetExpression,
        reference: SetExpression | None,
        stats: ExecutionStats | None = None,
    ) -> tuple[str, np.ndarray, np.ndarray]:
        """Step one of §6.1: validated set expressions as ``(member_type,
        Sc, Sr)``, evaluated through the strategy.  Without a reference
        expression ``Sr is Sc``; an empty set of either kind is an error."""
        evaluator = SetEvaluator(self.strategy, stats)
        member_type, candidate_set = evaluator.evaluate(candidates)
        reference_set = (
            candidate_set if reference is None else evaluator.evaluate(reference)[1]
        )
        if not candidate_set.size:
            raise ExecutionError("the candidate set is empty")
        if not reference_set.size:
            raise ExecutionError("the reference set is empty")
        return member_type, candidate_set, reference_set

    def _degradation_reason(self, partial_reason: str | None) -> str | None:
        """Combine strategy-ladder demotions and partial scoring into one reason."""
        parts = (self.strategy.degradation_reason, partial_reason)
        return "; ".join(part for part in parts if part) or None

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score(
        self,
        validated: ValidatedQuery,
        candidates: np.ndarray,
        reference: np.ndarray,
        stats: ExecutionStats | None,
    ) -> tuple[np.ndarray, dict[str, np.ndarray] | None, str | None]:
        """Combine Ω across the query's feature meta-paths (see ``combine``).

        Returns the combined scores; for multi-feature score/rank queries,
        the per-path raw Ω vectors (the explanation payload); and a
        partial-result reason when the deadline expired after some — but
        not all — feature meta-paths were scored (``None`` otherwise).
        """
        features = validated.features
        if self.combine == "connectivity" and len(features) > 1:
            combined = self._score_combined_connectivity(
                validated, candidates, reference, stats
            )
            return combined, None, None

        allow_partial = (
            self.resilience.allow_partial if self.resilience is not None else False
        )
        scored: list[tuple[WeightedMetaPath, np.ndarray]] = []
        partial_reason: str | None = None
        for feature in features:
            try:
                check_deadline("feature scoring")
                scores = self._score_single_path(feature, candidates, reference, stats)
            except DeadlineExceededError as error:
                # The ladder handles *strategy* failures; the deadline is
                # different — scoring stops, but feature meta-paths already
                # scored still form a valid (partial) ranking.
                if allow_partial and scored:
                    partial_reason = (
                        f"deadline expired after {len(scored)} of "
                        f"{len(features)} feature meta-paths ({error})"
                    )
                    break
                raise
            scored.append((feature, scores))

        total_weight = sum(feature.weight for feature, _ in scored)
        combined = np.zeros(len(candidates), dtype=float)
        per_feature: dict[str, np.ndarray] = {}
        for feature, scores in scored:
            per_feature[str(feature.path)] = scores
            if self.combine == "rank" and len(scored) > 1:
                # Average of per-path ranks: 1 = most outlying.  Ties get
                # the same (minimum) rank via double argsort on (score, idx).
                order = np.lexsort((np.arange(len(scores)), scores))
                ranks = np.empty(len(scores), dtype=float)
                ranks[order] = np.arange(1, len(scores) + 1)
                combined += (feature.weight / total_weight) * ranks
            else:
                combined += (feature.weight / total_weight) * scores
        if len(scored) < 2:
            return combined, None, partial_reason
        return combined, per_feature, partial_reason

    def _score_combined_connectivity(
        self,
        validated: ValidatedQuery,
        candidates: np.ndarray,
        reference: np.ndarray,
        stats: ExecutionStats | None,
    ) -> np.ndarray:
        """Score once over √weight-scaled, concatenated neighbor vectors.

        With φ' = [√w₁·φ₁ | √w₂·φ₂ | …], inner products become the weighted
        sum of per-path connectivities: χ'(a, b) = Σ_p w_p χ_p(a, b) — the
        "redefine the connectivity" option of Section 5.1.
        """
        candidate_blocks = []
        reference_blocks = []
        for feature in validated.features:
            scale = np.sqrt(feature.weight)
            phi_candidates = self.strategy.neighbor_matrix(
                feature.path, candidates, stats
            )
            candidate_blocks.append(phi_candidates * scale)
            if reference is candidates:  # no COMPARED TO
                reference_blocks.append(candidate_blocks[-1])
            else:
                phi_reference = self.strategy.neighbor_matrix(
                    feature.path, reference, stats
                )
                reference_blocks.append(phi_reference * scale)
        phi_candidates = sparse.hstack(candidate_blocks, format="csr")
        phi_reference = sparse.hstack(reference_blocks, format="csr")
        if stats is None:
            return self.measure.score(phi_candidates, phi_reference)
        with stats.timer.phase(PHASE_SCORING):
            return self.measure.score(phi_candidates, phi_reference)

    def _score_single_path(
        self,
        feature: WeightedMetaPath,
        candidates: np.ndarray,
        reference: np.ndarray,
        stats: ExecutionStats | None,
    ) -> np.ndarray:
        path = feature.path
        if self.measure.scores_from_sums and self.strategy.can_propagate:
            # Equation 1 needs a sum and a norm per candidate, not Φ: vector
            # propagation along the path, and ‖φ(v)‖² (DESIGN.md "Eq. 1 by sums").
            return self.measure.score_from_sums(
                self.strategy.connectivity_sums(path, candidates, reference, stats),
                self.strategy.visibilities(path, candidates, stats),
                len(reference),
            )
        phi_candidates = self.strategy.neighbor_matrix(path, candidates, stats)
        if reference is candidates:  # no COMPARED TO
            phi_reference: sparse.csr_matrix = phi_candidates
        else:
            phi_reference = self.strategy.neighbor_matrix(path, reference, stats)
        check_deadline("outlierness scoring")
        if stats is None:
            return self.measure.score(phi_candidates, phi_reference)
        with stats.timer.phase(PHASE_SCORING):
            return self.measure.score(phi_candidates, phi_reference)

    # ------------------------------------------------------------------
    # Batch helper for the efficiency study
    # ------------------------------------------------------------------
    def execute_many(self, queries: list[str | Query]) -> BatchExecution:
        """Execute a query set and return results, aggregated stats, errors.

        One failing query never aborts the batch: execution-time failures —
        empty candidate sets, anchors that no longer exist (dead query-log
        entries), expired deadlines — are collected into the returned
        :class:`BatchExecution`'s ``errors`` mapping, keyed by the query's
        index in ``queries``, while every other query still runs.  Syntax
        and semantic errors (:class:`~repro.exceptions.QueryError`) still
        raise immediately: a malformed workload is a caller bug, not a data
        artifact.

        The return value unpacks as the historical ``(results, stats)``
        pair; ``errors`` rides along as an attribute.
        """
        results: list[OutlierResult] = []
        errors: dict[int, ReproError] = {}
        aggregate = ExecutionStats(queries=0)
        for position, query in enumerate(queries):
            try:
                result = self.execute(query)
            except QueryError:
                raise
            except ReproError as error:
                errors[position] = error
                continue
            results.append(result)
            if result.stats is not None:
                aggregate.merge(result.stats)
        return BatchExecution(results, aggregate, errors)
