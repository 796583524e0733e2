"""Tests for :mod:`repro.viz` (terminal visualization, paper §8)."""

import numpy as np
import pytest

from repro.engine.executor import QueryExecutor
from repro.engine.strategies import BaselineStrategy
from repro.exceptions import ReproError
from repro.hin.network import VertexId
from repro.metapath.metapath import MetaPath
from repro.viz import histogram, profile_comparison, score_distribution, sparkline


class TestSparkline:
    def test_monotone_sequence(self):
        assert sparkline([0, 1, 2, 3]) == "▁▃▆█"

    def test_constant_sequence(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_preserved(self):
        values = np.random.default_rng(0).normal(size=37)
        assert len(sparkline(values)) == 37


class TestHistogram:
    def test_counts_sum_to_input_size(self):
        values = np.random.default_rng(1).normal(size=100)
        text = histogram(values, bins=8)
        counts = [int(line.rsplit(" ", 1)[-1]) for line in text.splitlines()]
        assert sum(counts) == 100
        assert len(counts) == 8

    def test_empty(self):
        assert histogram([]) == "(no data)"

    def test_invalid_bins(self):
        with pytest.raises(ReproError):
            histogram([1.0], bins=0)

    def test_single_value(self):
        text = histogram([3.0, 3.0], bins=4)
        assert "2" in text


class TestScoreDistribution:
    @pytest.fixture()
    def result(self, figure1):
        return QueryExecutor(BaselineStrategy(figure1)).execute(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 2;"
        )

    def test_mentions_candidates_and_topk(self, result):
        text = score_distribution(result)
        assert "3 candidates" in text
        assert "top-2" in text

    def test_outlier_bins_marked(self, result):
        text = score_distribution(result)
        assert any(line.startswith("*") for line in text.splitlines()[1:])

    def test_empty_result(self):
        from repro.core.results import OutlierResult

        empty = OutlierResult.from_scores({}, {}, top_k=1, reference_count=0)
        assert score_distribution(empty) == "(no candidates)"


class TestProfileComparison:
    def test_shows_dominant_dimensions(self, figure2):
        strategy = BaselineStrategy(figure2)
        jim = figure2.find_vertex("author", "Jim")
        mary = figure2.find_vertex("author", "Mary")
        text = profile_comparison(
            strategy,
            MetaPath.parse("author.paper.venue"),
            jim,
            [mary.index],
        )
        assert "Jim" in text
        for venue in ("V1", "V2", "V3"):
            assert venue in text

    def test_wrong_vertex_type_rejected(self, figure2):
        strategy = BaselineStrategy(figure2)
        kdd = figure2.find_vertex("venue", "V1")
        with pytest.raises(ReproError, match="source"):
            profile_comparison(
                strategy, MetaPath.parse("author.paper.venue"), kdd, [0]
            )

    def test_zero_profile_vertex(self, figure1):
        lonely = figure1.add_vertex("author", "Lonely")
        strategy = BaselineStrategy(figure1)
        zoe = figure1.find_vertex("author", "Zoe")
        text = profile_comparison(
            strategy,
            MetaPath.parse("author.paper.venue"),
            lonely,
            [zoe.index],
        )
        assert "Lonely" in text

    def test_top_dimensions_cap(self, figure2):
        strategy = BaselineStrategy(figure2)
        jim = figure2.find_vertex("author", "Jim")
        text = profile_comparison(
            strategy,
            MetaPath.parse("author.paper.venue"),
            jim,
            [0],
            top_dimensions=2,
        )
        # Header (2 lines) + 2 dimension rows.
        assert len(text.splitlines()) == 4
