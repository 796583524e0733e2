"""Tests for :mod:`repro.engine.executor` — end-to-end query execution."""

import numpy as np
import pytest

from repro.engine.executor import QueryExecutor
from repro.engine.strategies import BaselineStrategy, PMStrategy, SPMStrategy
from repro.exceptions import ExecutionError, QuerySemanticError, QuerySyntaxError
from repro.query.parser import parse_query

TABLE2_QUERY = """
FIND OUTLIERS
FROM author{"Sarah"} UNION author{"Rob"} UNION author{"Lucy"}
     UNION author{"Joe"} UNION author{"Emma"}
COMPARED TO author AS A WHERE COUNT(A.paper) = 22
JUDGED BY author.paper.venue
TOP 5;
"""


class TestEndToEnd:
    def test_table2_query_reproduces_paper_scores(self, table1):
        """Full pipeline (parse -> evaluate -> score) reproduces Table 2.

        The reference set 'authors with exactly 22 papers' selects exactly
        the 100 reference authors (10+10+1+1 = 22 papers each; Sarah also
        has 22 and is legitimately part of the reference population).
        """
        network, _, _ = table1
        executor = QueryExecutor(BaselineStrategy(network))
        result = executor.execute(TABLE2_QUERY)
        # Sarah matches the WHERE too, so |Sr| = 101 and every score is
        # shifted by one extra reference clone relative to Table 2's 100;
        # re-derive expectations directly: Ω = κ·|Sr| for clones.
        assert result.reference_count == 101
        scores = {entry.name: entry.score for entry in result}
        assert scores["Sarah"] == pytest.approx(101.0)
        assert scores["Emma"] == pytest.approx(101 / 30, rel=1e-6)
        assert result.names()[0] == "Emma"  # strongest outlier first

    def test_results_identical_across_strategies(self, figure1):
        query = (
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        results = []
        for strategy in (
            BaselineStrategy(figure1),
            PMStrategy(figure1),
            SPMStrategy(figure1, selected=[figure1.find_vertex("author", "Zoe")]),
        ):
            result = QueryExecutor(strategy).execute(query)
            results.append([(e.name, round(e.score, 12)) for e in result])
        assert results[0] == results[1] == results[2]

    def test_accepts_parsed_ast(self, figure1):
        ast = parse_query(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 2;"
        )
        result = QueryExecutor(BaselineStrategy(figure1)).execute(ast)
        assert len(result) == 2

    def test_reference_defaults_to_candidates(self, figure1):
        result = QueryExecutor(BaselineStrategy(figure1)).execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        assert result.reference_count == result.candidate_count == 3

    def test_top_k_larger_than_candidates(self, figure1):
        result = QueryExecutor(BaselineStrategy(figure1)).execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 50;"
        )
        assert len(result) == 3

    def test_multiple_features_weighted_average(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1))
        venue_only = executor.execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        coauthor_only = executor.execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.author TOP 3;"
        )
        both = executor.execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue: 3.0, author.paper.author TOP 3;"
        )
        for vertex, combined in both.scores.items():
            expected = (
                3.0 * venue_only.scores[vertex] + 1.0 * coauthor_only.scores[vertex]
            ) / 4.0
            assert combined == pytest.approx(expected)

    def test_measure_selection_by_name(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1), measure="cossim")
        result = executor.execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        assert result.measure == "cossim"


class TestErrors:
    def test_syntax_error_propagates(self, figure1):
        with pytest.raises(QuerySyntaxError):
            QueryExecutor(BaselineStrategy(figure1)).execute("FIND weirdness;")

    def test_semantic_error_propagates(self, figure1):
        with pytest.raises(QuerySemanticError):
            QueryExecutor(BaselineStrategy(figure1)).execute(
                'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
                "JUDGED BY venue.paper.term TOP 3;"
            )

    def test_empty_candidate_set(self, figure1):
        with pytest.raises(ExecutionError, match="candidate set is empty"):
            QueryExecutor(BaselineStrategy(figure1)).execute(
                'FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) > 99 '
                "JUDGED BY author.paper.venue TOP 3;"
            )

    def test_empty_reference_set(self, figure1):
        with pytest.raises(ExecutionError, match="reference set is empty"):
            QueryExecutor(BaselineStrategy(figure1)).execute(
                'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
                "COMPARED TO author AS A WHERE COUNT(A.paper) > 99 "
                "JUDGED BY author.paper.venue TOP 3;"
            )


class TestStats:
    def test_stats_attached_by_default(self, figure1):
        result = QueryExecutor(BaselineStrategy(figure1)).execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        assert result.stats is not None
        assert result.stats.wall_seconds > 0
        assert sum(result.stats.breakdown().values()) > 0

    def test_stats_disabled(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1), collect_stats=False)
        result = executor.execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        assert result.stats is None

    def test_baseline_records_not_indexed_phase(self, figure1):
        result = QueryExecutor(BaselineStrategy(figure1)).execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        assert result.stats.not_indexed_seconds > 0
        assert result.stats.indexed_seconds == 0
        assert result.stats.scoring_seconds > 0

    def test_pm_records_indexed_phase(self, figure1):
        result = QueryExecutor(PMStrategy(figure1)).execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        assert result.stats.indexed_seconds > 0
        assert result.stats.not_indexed_seconds == 0


class TestExecuteMany:
    def test_aggregated_stats(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1))
        queries = [
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        ] * 4
        results, aggregate = executor.execute_many(queries)
        assert len(results) == 4
        assert aggregate.queries == 4
        assert aggregate.wall_seconds >= sum(r.stats.wall_seconds for r in results) * 0.99

    def test_skip_failures(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1))
        queries = [
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;",
            # Empty candidate set -> ExecutionError -> skipped.
            'FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) > 99 '
            "JUDGED BY author.paper.venue TOP 3;",
        ]
        results, aggregate = executor.execute_many(queries)
        assert len(results) == 1

    def test_skip_failures_covers_dead_anchors(self, figure1):
        """A query-log entry whose anchor vanished is skipped, not fatal."""
        executor = QueryExecutor(BaselineStrategy(figure1))
        queries = [
            'FIND OUTLIERS FROM author{"Ghost Author"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;",
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;",
        ]
        results, __ = executor.execute_many(queries)
        assert len(results) == 1

    def test_skip_failures_does_not_hide_syntax_errors(self, figure1):
        from repro.exceptions import QuerySyntaxError

        executor = QueryExecutor(BaselineStrategy(figure1))
        with pytest.raises(QuerySyntaxError):
            executor.execute_many(["FIND gibberish"])

    def test_failures_are_collected_per_query(self, figure1):
        """One failing query no longer aborts the batch: errors come back
        keyed by query index alongside the successful results."""
        executor = QueryExecutor(BaselineStrategy(figure1))
        good = (
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        bad = (
            'FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) > 99 '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        batch = executor.execute_many([good, bad, good])
        results, stats = batch  # the historical 2-tuple unpacking works
        assert len(results) == 2
        assert stats.queries == 2
        assert set(batch.errors) == {1}
        assert isinstance(batch.errors[1], ExecutionError)

    def test_batch_execution_attributes(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1))
        query = (
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        batch = executor.execute_many([query])
        assert batch.results == batch[0]
        assert batch.stats is batch[1]
        assert batch.errors == {}
