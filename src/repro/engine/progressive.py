"""Progressive (anytime) query execution with confidence intervals.

Section 8 of the paper sketches this extension: *"the system could find the
approximate top-k outliers, with confidences, while the query is being
processed so that users can determine whether to continue processing the
query."*

For an additive measure (sum-aggregated NetOut, ΩPathSim, ΩCosSim), a
candidate's final score is the sum of independent per-reference
contributions.  Processing the reference set in random order therefore
yields, after seeing a fraction ``f`` of it, an unbiased estimate of the
final score — ``|Sr| · mean(contributions seen)`` — with a CLT confidence
interval from the running contribution variance.

:class:`ProgressiveQueryExecutor.stream` yields a
:class:`ProgressiveSnapshot` after every chunk; :meth:`execute` runs the
stream and can stop early once the provisional top-k is *stable*: every
inside-candidate's upper bound is below every outside-candidate's lower
bound at the requested confidence.

Only the reference loop is progressive.  A progressive executor holds a
:class:`~repro.engine.executor.QueryExecutor` and validates the query and
retrieves ``Sc``/``Sr`` through it, so a query exact execution refuses is
refused here with the same error; the final ranking is
:meth:`~repro.core.results.OutlierResult.from_columns`, as for every result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.measures import Measure
from repro.core.results import OutlierResult
from repro.engine.executor import QueryExecutor
from repro.engine.strategies import MaterializationStrategy
from repro.exceptions import ExecutionError, MeasureError
from repro.hin.network import VertexId
from repro.query.ast import Query
from repro.utils.rng import ensure_rng

__all__ = ["ProgressiveSnapshot", "ProgressiveQueryExecutor"]

# Two-sided normal quantiles for the supported confidence levels.
_Z_VALUES = {0.8: 1.2816, 0.9: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def _z_for(confidence: float) -> float:
    z = _Z_VALUES.get(round(confidence, 4))
    if z is None:
        raise MeasureError(
            f"unsupported confidence {confidence}; choose one of "
            f"{sorted(_Z_VALUES)}"
        )
    return z


@dataclass
class ProgressiveSnapshot:
    """State of a progressive execution after one chunk of the reference set.

    Attributes
    ----------
    processed, total:
        Reference vertices consumed so far / overall.
    estimates:
        Projected final Ω per candidate (unbiased under random reference
        order).  Exact once ``processed == total``.
    half_widths:
        CLT half-widths of the projected scores at the executor's
        confidence level (zeros when everything is processed).
    top_k:
        Provisional top-k candidate vertices, most outlying first.
    stable:
        True when the top-k membership cannot change at the confidence
        level (every inside upper bound < every outside lower bound).
    """

    processed: int
    total: int
    estimates: dict[VertexId, float]
    half_widths: dict[VertexId, float]
    top_k: list[VertexId]
    stable: bool

    @property
    def fraction(self) -> float:
        return self.processed / self.total if self.total else 1.0

    @property
    def complete(self) -> bool:
        return self.processed >= self.total


class ProgressiveQueryExecutor:
    """Anytime executor: stream provisional top-k results with confidence.

    Parameters
    ----------
    strategy:
        Materialization strategy (Baseline / PM / SPM).
    measure:
        An *additive* measure (``is_additive``); defaults to NetOut.
    chunk_size:
        Reference vertices consumed per snapshot.
    confidence:
        Confidence level for intervals and the stability test
        (0.8 / 0.9 / 0.95 / 0.99).
    seed:
        Seed for the random reference permutation (determinism).
    """

    def __init__(
        self,
        strategy: MaterializationStrategy,
        measure: Measure | str = "netout",
        *,
        chunk_size: int = 64,
        confidence: float = 0.95,
        seed: int | np.random.Generator = 0,
    ) -> None:
        #: Validation and set retrieval are the exact executor's own.
        self.executor = QueryExecutor(strategy, measure, collect_stats=False)
        self.strategy = strategy
        self.network = strategy.network
        self.measure = self.executor.measure
        if not self.measure.is_additive:
            raise MeasureError(
                f"progressive execution needs an additive measure; "
                f"{self.measure.name!r} is not"
            )
        if chunk_size < 1:
            raise ExecutionError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.confidence = confidence
        self._z = _z_for(confidence)
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def stream(self, query: str | Query) -> Iterator[ProgressiveSnapshot]:
        """Yield a snapshot after each processed reference chunk.

        Only single-feature queries are supported (the natural anytime
        setting; multi-path queries can be streamed per path by the caller).
        """
        validated = self.executor.validate(query)
        if len(validated.features) != 1:
            raise ExecutionError(
                "progressive execution supports exactly one feature meta-path"
            )
        feature = validated.features[0]
        ast = validated.query
        member_type, candidates, reference = self.executor.resolve_sets(
            ast.candidates, ast.reference
        )

        phi_candidates = self.strategy.neighbor_matrix(feature.path, candidates)
        order = reference[self._rng.permutation(len(reference))]
        total = len(order)
        count = len(candidates)
        vertex_ids = [VertexId(member_type, index) for index in candidates.tolist()]

        running_sum = np.zeros(count)
        running_sumsq = np.zeros(count)
        processed = 0
        while processed < total:
            chunk = order[processed:processed + self.chunk_size]
            phi_chunk = self.strategy.neighbor_matrix(feature.path, chunk)
            contributions = self.measure.contribution_matrix(
                phi_candidates, phi_chunk
            )
            running_sum += contributions.sum(axis=1)
            running_sumsq += (contributions ** 2).sum(axis=1)
            processed += len(chunk)
            yield self._snapshot(
                vertex_ids,
                running_sum,
                running_sumsq,
                processed,
                total,
                ast.top_k,
            )

    def _snapshot(
        self,
        vertex_ids: list[VertexId],
        running_sum: np.ndarray,
        running_sumsq: np.ndarray,
        processed: int,
        total: int,
        top_k: int,
    ) -> ProgressiveSnapshot:
        means = running_sum / processed
        estimates = means * total
        if processed >= total:
            half = np.zeros_like(estimates)
        else:
            variances = np.maximum(running_sumsq / processed - means ** 2, 0.0)
            # Finite-population correction: the estimate is exact at f = 1.
            correction = max(0.0, (total - processed) / max(total - 1, 1))
            standard_errors = np.sqrt(variances / processed * correction)
            half = self._z * standard_errors * total

        order = np.lexsort((np.arange(len(estimates)), estimates))
        k = min(top_k, len(order))
        inside, outside = order[:k], order[k:]
        if processed >= total or len(outside) == 0:
            stable = True
        else:
            worst_inside = (estimates[inside] + half[inside]).max()
            best_outside = (estimates[outside] - half[outside]).min()
            stable = bool(worst_inside < best_outside)

        return ProgressiveSnapshot(
            processed=processed,
            total=total,
            estimates={v: float(e) for v, e in zip(vertex_ids, estimates)},
            half_widths={v: float(h) for v, h in zip(vertex_ids, half)},
            top_k=[vertex_ids[i] for i in inside],
            stable=stable,
        )

    # ------------------------------------------------------------------
    # One-shot convenience
    # ------------------------------------------------------------------
    def execute(
        self,
        query: str | Query,
        *,
        early_stop: bool = True,
        min_fraction: float = 0.1,
    ) -> tuple[OutlierResult, ProgressiveSnapshot]:
        """Run the stream and return ``(result, final snapshot)``.

        With ``early_stop`` the run halts at the first stable snapshot past
        ``min_fraction`` of the reference set; scores in the result are the
        projected estimates at that point (exact when the full set was
        processed).
        """
        last: ProgressiveSnapshot | None = None
        for snapshot in self.stream(query):
            last = snapshot
            if early_stop and snapshot.stable and snapshot.fraction >= min_fraction:
                break
        assert last is not None  # stream always yields for non-empty sets
        vertices = list(last.estimates)
        member_type = vertices[0].type
        result = OutlierResult.from_columns(
            member_type,
            [vertex.index for vertex in vertices],
            list(last.estimates.values()),
            self.network.vertex_names(member_type),
            # The provisional head is min(TOP k, |Sc|) long: the same head.
            top_k=len(last.top_k),
            reference_count=last.total,
            measure=self.measure.name,
        )
        return result, last
