"""Query suggestion: help users find more interesting outlier queries.

Section 8 of the paper: *"The system might even be able to suggest how the
users can modify their queries to get more interesting, or more unusual,
outliers."*

:class:`QueryAdvisor` implements the feature-meta-path variant of that
idea.  Given a query, it enumerates the alternative feature meta-paths the
schema allows from the candidate member type, executes each variant, and
ranks them by an *interestingness* score of the resulting Ω distribution:
a query is interesting when its top outliers separate sharply from the
bulk of the candidate set (and uninteresting when every candidate scores
about the same, or when scores are degenerate).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.results import OutlierResult
from repro.engine.executor import QueryExecutor
from repro.engine.strategies import MaterializationStrategy
from repro.exceptions import ExecutionError
from repro.metapath.metapath import MetaPath
from repro.query.ast import FeaturePath, Query
from repro.query.formatter import format_query
from repro.query.parser import parse_query
from repro.query.semantics import validate_query

__all__ = ["Suggestion", "QueryAdvisor", "interestingness"]


def interestingness(scores: np.ndarray, top_k: int) -> float:
    """Separation of the top-k outliers from the bulk, in [0, 1].

    Defined as ``(median - mean(top-k)) / median`` over the ascending score
    vector (lower Ω = more outlying), clipped to [0, 1]:

    * 0 — the provisional outliers score like the typical candidate
      (nothing stands out, or the distribution is degenerate);
    * → 1 — the top-k sit far below the bulk of the candidate set.
    """
    values = np.sort(np.asarray(scores, dtype=float))
    if len(values) <= top_k:
        return 0.0
    median = float(np.median(values))
    if median <= 0:
        return 0.0
    top_mean = float(values[:top_k].mean())
    return float(np.clip((median - top_mean) / median, 0.0, 1.0))


@dataclass(frozen=True)
class Suggestion:
    """One suggested query variant.

    Attributes
    ----------
    feature_path:
        The alternative feature meta-path.
    query_text:
        The full rewritten query in canonical form.
    score:
        Interestingness of the variant's Ω distribution (higher = better).
    result:
        The executed result of the variant (top-k et al.).
    """

    feature_path: MetaPath
    query_text: str
    score: float
    result: OutlierResult

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.score:.3f}] JUDGED BY {self.feature_path}"


class QueryAdvisor:
    """Suggests alternative feature meta-paths for an outlier query.

    Parameters
    ----------
    strategy:
        Materialization strategy used to execute candidate variants
        (a PM strategy makes exploration fast).
    measure:
        Measure name or instance used for the variants.
    """

    def __init__(
        self,
        strategy: MaterializationStrategy,
        measure: str = "netout",
    ) -> None:
        self.strategy = strategy
        self.network = strategy.network
        self._executor = QueryExecutor(strategy, measure, collect_stats=False)

    # ------------------------------------------------------------------
    # Meta-path enumeration
    # ------------------------------------------------------------------
    def enumerate_feature_paths(
        self,
        member_type: str,
        *,
        max_length: int = 3,
        limit: int = 32,
    ) -> list[MetaPath]:
        """All schema-legal meta-paths from ``member_type``, by length.

        Paths are enumerated breadth-first up to ``max_length`` hops and
        capped at ``limit`` (schemas with many edge types explode
        combinatorially).  Trivial one-hop paths are included — they are
        legal ``JUDGED BY`` clauses.
        """
        if max_length < 1:
            raise ExecutionError(f"max_length must be >= 1, got {max_length}")
        schema = self.network.schema
        frontier: list[tuple[str, ...]] = [(member_type,)]
        discovered: list[MetaPath] = []
        for __ in range(max_length):
            next_frontier: list[tuple[str, ...]] = []
            for prefix in frontier:
                for neighbor in sorted(schema.neighbor_types(prefix[-1])):
                    extended = prefix + (neighbor,)
                    discovered.append(MetaPath(extended))
                    next_frontier.append(extended)
                    if len(discovered) >= limit:
                        return discovered
            frontier = next_frontier
        return discovered

    # ------------------------------------------------------------------
    # Suggestion
    # ------------------------------------------------------------------
    def suggest(
        self,
        query: str | Query,
        *,
        max_length: int = 3,
        max_suggestions: int = 5,
        include_current: bool = False,
    ) -> list[Suggestion]:
        """Rank alternative single-feature variants of ``query``.

        Each schema-legal feature meta-path from the candidate member type
        (except those already in the query, unless ``include_current``)
        replaces the JUDGED BY clause; the variant runs, and variants are
        ranked by :func:`interestingness` descending.  Variants whose
        candidate scores are all zero (no connectivity at all along that
        path) are dropped.
        """
        ast = parse_query(query) if isinstance(query, str) else query
        validated = validate_query(self.network.schema, ast)
        current = {feature.path.types for feature in validated.features}

        suggestions: list[Suggestion] = []
        for path in self.enumerate_feature_paths(
            validated.member_type, max_length=max_length
        ):
            if not include_current and path.types in current:
                continue
            variant = replace(ast, features=(FeaturePath(path.types),))
            try:
                result = self._executor.execute(variant)
            except ExecutionError:
                continue
            scores = result.omega
            if not scores.any():
                continue
            suggestions.append(
                Suggestion(
                    feature_path=path,
                    query_text=format_query(variant),
                    score=interestingness(scores, ast.top_k),
                    result=result,
                )
            )
        suggestions.sort(key=lambda s: (-s.score, str(s.feature_path)))
        return suggestions[:max_suggestions]
