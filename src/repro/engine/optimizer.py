"""SPM workload analysis: choosing which vertices to pre-materialize.

Section 6.2's selective pre-materialization counts "the frequency with
which different vertices appear in queries" over an *initialization query
set* (query logs, or synthetic queries standing in for them) and indexes
length-2 rows only for vertices whose relative frequency clears a threshold
(0.01 in the paper's experiments).

:class:`WorkloadAnalyzer` validates each initialization query exactly as
the executor does (:meth:`~repro.engine.executor.QueryExecutor.validate`),
evaluates its candidate-set expression against the network, tallies how
often each vertex appears across candidate sets, and returns the vertices
above threshold.  A query the executor would refuse as malformed raises the
same typed :class:`~repro.exceptions.QueryError` here; one whose anchor is
gone or whose candidate set is empty is analyzed and contributes nothing.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.engine.evaluator import SetEvaluator
from repro.engine.executor import QueryExecutor
from repro.engine.index import MetaPathIndex, build_spm_index
from repro.engine.strategies import BaselineStrategy
from repro.exceptions import VertexNotFoundError
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.query.ast import Query

__all__ = ["WorkloadAnalyzer", "select_frequent_vertices"]


class WorkloadAnalyzer:
    """Tallies vertex frequencies over an initialization query set.

    Frequencies are *relative*: the fraction of analyzed queries whose
    candidate set contains the vertex.  Anchor vertices themselves are also
    counted (they appear in query processing even when not members).

    Parameters
    ----------
    network:
        The network queries run against.
    """

    def __init__(self, network: HeterogeneousInformationNetwork) -> None:
        self.network = network
        self._occurrences: Counter[VertexId] = Counter()
        self._analyzed = 0
        # Analysis itself runs unindexed (there is no index yet to use).
        self._executor = QueryExecutor(BaselineStrategy(network), collect_stats=False)
        self._evaluator = SetEvaluator(self._executor.strategy)

    def analyze(self, query: str | Query) -> None:
        """Fold one query's candidate-set membership into the tallies.

        Queries whose anchors do not exist in the network are counted as
        analyzed but contribute no members (matching how a dead query log
        entry would behave).

        Raises
        ------
        QueryError
            When the query does not parse or fails semantic validation; it
            is then not counted.
        """
        ast = self._executor.validate(query).query
        self._analyzed += 1
        try:
            member_type, members = self._evaluator.evaluate(ast.candidates)
        except VertexNotFoundError:
            return
        for member in members.tolist():
            self._occurrences[VertexId(member_type, member)] += 1

    def analyze_many(self, queries: Iterable[str | Query]) -> None:
        for query in queries:
            self.analyze(query)

    def relative_frequencies(self) -> dict[VertexId, float]:
        """Vertex → fraction of analyzed queries containing it."""
        if self._analyzed == 0:
            return {}
        return {
            vertex: count / self._analyzed
            for vertex, count in self._occurrences.items()
        }

    def frequent_vertices(self, threshold: float) -> list[VertexId]:
        """Vertices with relative frequency ≥ ``threshold``, sorted."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        frequencies = self.relative_frequencies()
        return sorted(v for v, f in frequencies.items() if f >= threshold)

    def build_index(self, threshold: float) -> MetaPathIndex:
        """Build the SPM index for the vertices above ``threshold``."""
        index, _ = build_spm_index(self.network, self.frequent_vertices(threshold))
        return index


def select_frequent_vertices(
    network: HeterogeneousInformationNetwork,
    queries: Sequence[str | Query],
    threshold: float,
) -> list[VertexId]:
    """One-shot convenience: analyze ``queries`` and select frequent vertices."""
    analyzer = WorkloadAnalyzer(network)
    analyzer.analyze_many(queries)
    return analyzer.frequent_vertices(threshold)
