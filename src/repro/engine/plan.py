"""Query plans: a human-readable explanation of how a query will execute.

``explain`` mirrors what the executor will do — set evaluation, feature
materialization (with the length-2 decomposition and per-segment index
availability), and scoring — without running anything.  Useful for
debugging SPM coverage and for teaching material in the examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.strategies import MaterializationStrategy
from repro.metapath.materialize import decompose_length2
from repro.metapath.metapath import MetaPath
from repro.query.ast import Query
from repro.query.formatter import format_set_expression
from repro.query.parser import parse_query
from repro.query.semantics import validate_query

__all__ = ["QueryPlan", "FeaturePlan", "explain"]


@dataclass(frozen=True)
class FeaturePlan:
    """Execution plan for one feature meta-path."""

    path: MetaPath
    weight: float
    segments: tuple[MetaPath, ...]
    tail: MetaPath | None
    #: Per-segment index coverage: "full", "partial", or "none".
    coverage: tuple[str, ...]
    #: Estimated non-zeros of one materialized φ row (cost proxy for the
    #: per-vertex materialization work); see :func:`estimate_row_nnz`.
    estimated_row_nnz: float = 0.0


@dataclass(frozen=True)
class QueryPlan:
    """The full plan: set expressions, features, strategy, and measure."""

    candidate_expression: str
    reference_expression: str | None
    member_type: str
    features: tuple[FeaturePlan, ...]
    strategy: str
    top_k: int

    def describe(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [
            f"strategy        : {self.strategy}",
            f"candidate set   : {self.candidate_expression}",
            f"reference set   : {self.reference_expression or '(same as candidates)'}",
            f"member type     : {self.member_type}",
            f"top-k           : {self.top_k}",
        ]
        for feature in self.features:
            lines.append(
                f"feature         : {feature.path} (weight {feature.weight:g}, "
                f"~{feature.estimated_row_nnz:.0f} nnz/row)"
            )
            for segment, coverage in zip(feature.segments, feature.coverage):
                lines.append(f"  segment {segment}  [index: {coverage}]")
            if feature.tail is not None:
                lines.append(f"  tail    {feature.tail}  [single hop]")
        return "\n".join(lines)


def estimate_row_nnz(strategy: MaterializationStrategy, path: MetaPath) -> float:
    """Estimate the non-zeros of one materialized ``φ_path`` row.

    A cost proxy for per-vertex materialization work.  The estimate chains
    mean out-degrees: after hop ``i`` the expected frontier weight
    multiplies by the mean degree of the hop's edge type, capped at the
    target type's population (a row cannot have more non-zeros than
    columns).  Exact per-vertex counts vary with degree skew; this is the
    order-of-magnitude signal an EXPLAIN needs.
    """
    network = strategy.network
    expected = 1.0
    for left, right in zip(path.types, path.types[1:]):
        matrix = network.adjacency(left, right)
        rows = matrix.shape[0]
        mean_degree = (matrix.nnz / rows) if rows else 0.0
        expected *= mean_degree
        expected = min(expected, float(matrix.shape[1]))
    return expected


def _segment_coverage(strategy: MaterializationStrategy, segment: MetaPath) -> str:
    # The rung, not an ``index`` attribute: wrappers (the row cache) forward it.
    rung = strategy.rung
    if rung is None:
        return "none"
    index = rung.index
    # Coverage, not the matrix: reading a lazy index's matrix builds it.
    width = strategy.network.num_vertices(segment.source)
    if index.coverage_mask(segment, width) is None:
        return "full"
    return "partial" if segment in index.paths else "none"


def explain(strategy: MaterializationStrategy, query: str | Query) -> QueryPlan:
    """Build the :class:`QueryPlan` for ``query`` under ``strategy``."""
    ast = parse_query(query) if isinstance(query, str) else query
    validated = validate_query(strategy.network.schema, ast)
    features: list[FeaturePlan] = []
    for feature in validated.features:
        segments, tail = decompose_length2(feature.path)
        coverage = tuple(_segment_coverage(strategy, segment) for segment in segments)
        features.append(
            FeaturePlan(
                path=feature.path,
                weight=feature.weight,
                segments=tuple(segments),
                tail=tail,
                coverage=coverage,
                estimated_row_nnz=estimate_row_nnz(strategy, feature.path),
            )
        )
    return QueryPlan(
        candidate_expression=format_set_expression(ast.candidates),
        reference_expression=(
            format_set_expression(ast.reference) if ast.reference is not None else None
        ),
        member_type=validated.member_type,
        features=tuple(features),
        strategy=strategy.name,
        top_k=ast.top_k,
    )
