"""Tests for :mod:`repro.core.aggregation` and :mod:`repro.core.results`."""

import numpy as np
import pytest

from repro.core.aggregation import AGGREGATIONS, aggregate_normalized_connectivity
from repro.core.results import OutlierResult, ScoredVertex
from repro.hin.network import VertexId


class TestAggregation:
    @pytest.fixture()
    def matrix(self):
        return np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 6.0]])

    def test_sum(self, matrix):
        np.testing.assert_allclose(
            aggregate_normalized_connectivity(matrix, "sum"), [6.0, 6.0]
        )

    def test_mean(self, matrix):
        np.testing.assert_allclose(
            aggregate_normalized_connectivity(matrix, "mean"), [2.0, 2.0]
        )

    def test_min(self, matrix):
        np.testing.assert_allclose(
            aggregate_normalized_connectivity(matrix, "min"), [1.0, 0.0]
        )

    def test_max(self, matrix):
        np.testing.assert_allclose(
            aggregate_normalized_connectivity(matrix, "max"), [3.0, 6.0]
        )

    def test_empty_reference_returns_zeros(self):
        matrix = np.zeros((3, 0))
        for aggregation in AGGREGATIONS:
            np.testing.assert_allclose(
                aggregate_normalized_connectivity(matrix, aggregation), np.zeros(3)
            )

    def test_unknown_aggregation_rejected(self, matrix):
        with pytest.raises(ValueError, match="median"):
            aggregate_normalized_connectivity(matrix, "median")

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            aggregate_normalized_connectivity(np.ones(3), "sum")


def _make_result(scores_by_name, top_k=3):
    scores = {}
    names = {}
    for position, (name, score) in enumerate(scores_by_name.items()):
        vertex = VertexId("author", position)
        scores[vertex] = score
        names[vertex] = name
    return OutlierResult.from_scores(
        scores, names, top_k=top_k, reference_count=10
    )


class TestOutlierResult:
    def test_ranking_ascending_by_score(self):
        result = _make_result({"A": 3.0, "B": 1.0, "C": 2.0})
        assert result.names() == ["B", "C", "A"]
        assert [entry.rank for entry in result] == [1, 2, 3]

    def test_top_k_truncation(self):
        result = _make_result({"A": 3.0, "B": 1.0, "C": 2.0}, top_k=2)
        assert len(result) == 2
        assert result.names() == ["B", "C"]

    def test_full_score_map_retained(self):
        result = _make_result({"A": 3.0, "B": 1.0, "C": 2.0}, top_k=1)
        assert result.candidate_count == 3
        assert result.scores[VertexId("author", 0)] == 3.0

    def test_ties_break_by_name(self):
        result = _make_result({"Zed": 1.0, "Amy": 1.0})
        assert result.names() == ["Amy", "Zed"]

    def test_score_of_non_candidate_raises(self):
        result = _make_result({"A": 1.0})
        with pytest.raises(KeyError):
            result.scores[VertexId("author", 99)]

    def test_to_table_contains_all_rows(self):
        result = _make_result({"A": 3.0, "B": 1.0})
        table = result.to_table()
        assert "Rank" in table
        assert "A" in table and "B" in table

    def test_to_table_max_rows(self):
        result = _make_result({"A": 3.0, "B": 1.0, "C": 2.0})
        table = result.to_table(max_rows=1)
        assert "B" in table and "A" not in table

    def test_to_table_empty(self):
        result = OutlierResult.from_scores({}, {}, top_k=1, reference_count=0)
        assert result.to_table() == "(no outliers)"

    def test_scored_vertex_fields(self):
        result = _make_result({"A": 1.5})
        entry = result.outliers[0]
        assert isinstance(entry, ScoredVertex)
        assert entry.vertex == VertexId("author", 0)
        assert entry.name == "A"
        assert entry.score == 1.5
        assert entry.rank == 1
