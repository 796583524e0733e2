"""Tests for :mod:`repro.engine.optimizer`, ``plan``, ``detector``, ``stats``."""

import pytest

from repro.engine.caching import CachingStrategy
from repro.engine.detector import OutlierDetector
from repro.engine.optimizer import WorkloadAnalyzer, select_frequent_vertices
from repro.engine.plan import explain
from repro.engine.stats import (
    PHASE_INDEXED,
    PHASE_NOT_INDEXED,
    PHASE_SCORING,
    ExecutionStats,
)
from repro.engine.strategies import BaselineStrategy, PMStrategy, SPMStrategy
from repro.metapath.metapath import MetaPath
from repro.query.templates import TEMPLATE_Q1


class TestWorkloadAnalyzer:
    def test_frequencies_relative_to_query_count(self, figure1):
        analyzer = WorkloadAnalyzer(figure1)
        analyzer.analyze(TEMPLATE_Q1.render("Zoe"))
        analyzer.analyze(TEMPLATE_Q1.render("Ava"))
        frequencies = analyzer.relative_frequencies()
        zoe = figure1.find_vertex("author", "Zoe")
        # Zoe is in both candidate sets (her own and Ava's coauthors).
        assert frequencies[zoe] == 1.0

    def test_threshold_selection(self, figure1):
        analyzer = WorkloadAnalyzer(figure1)
        analyzer.analyze_many(
            [TEMPLATE_Q1.render("Zoe"), TEMPLATE_Q1.render("Ava")]
        )
        # Threshold 1.0: only vertices in every candidate set.
        always = analyzer.frequent_vertices(1.0)
        names = {figure1.vertex_name(v) for v in always}
        assert names == {"Ava", "Liam", "Zoe"}

    def test_missing_anchor_counts_as_analyzed(self, figure1):
        analyzer = WorkloadAnalyzer(figure1)
        analyzer.analyze(TEMPLATE_Q1.render("Nobody"))
        assert analyzer.relative_frequencies() == {}
        # The dead entry still counts: it halves every live frequency.
        analyzer.analyze(TEMPLATE_Q1.render("Zoe"))
        assert set(analyzer.relative_frequencies().values()) == {0.5}

    def test_empty_workload(self, figure1):
        analyzer = WorkloadAnalyzer(figure1)
        assert analyzer.relative_frequencies() == {}
        assert analyzer.frequent_vertices(0.5) == []

    def test_invalid_threshold(self, figure1):
        analyzer = WorkloadAnalyzer(figure1)
        with pytest.raises(ValueError):
            analyzer.frequent_vertices(1.5)

    def test_build_index_covers_frequent_vertices(self, figure1):
        analyzer = WorkloadAnalyzer(figure1)
        analyzer.analyze(TEMPLATE_Q1.render("Zoe"))
        index = analyzer.build_index(0.5)
        zoe = figure1.find_vertex("author", "Zoe")
        assert index.has_row(MetaPath.parse("author.paper.venue"), zoe.index)

    def test_select_frequent_vertices_helper(self, figure1):
        selected = select_frequent_vertices(
            figure1, [TEMPLATE_Q1.render("Zoe")], 0.5
        )
        names = {figure1.vertex_name(v) for v in selected}
        assert names == {"Ava", "Liam", "Zoe"}

    def test_accepts_parsed_queries(self, figure1):
        analyzer = WorkloadAnalyzer(figure1)
        analyzer.analyze(TEMPLATE_Q1.parse("Zoe"))
        assert set(analyzer.relative_frequencies().values()) == {1.0}


class TestExplain:
    QUERY = (
        'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
        "JUDGED BY author.paper.venue.paper.author: 2.0 TOP 4;"
    )

    def test_plan_structure(self, figure1):
        plan = explain(BaselineStrategy(figure1), self.QUERY)
        assert plan.strategy == "baseline"
        assert plan.member_type == "author"
        assert plan.top_k == 4
        feature = plan.features[0]
        assert feature.weight == 2.0
        assert [str(s) for s in feature.segments] == [
            "author.paper.venue",
            "venue.paper.author",
        ]
        assert feature.tail is None

    def test_coverage_baseline_none(self, figure1):
        plan = explain(BaselineStrategy(figure1), self.QUERY)
        assert set(plan.features[0].coverage) == {"none"}

    def test_coverage_pm_full(self, figure1):
        plan = explain(PMStrategy(figure1), self.QUERY)
        assert set(plan.features[0].coverage) == {"full"}

    def test_coverage_spm_partial(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        plan = explain(SPMStrategy(figure1, selected=[zoe]), self.QUERY)
        assert plan.features[0].coverage[0] == "partial"

    def test_coverage_seen_through_the_row_cache(self, figure1):
        """The cache forwards its inner strategy's rung, so PM segments stay
        ``full`` behind it (they once read as ``none``)."""
        zoe = figure1.find_vertex("author", "Zoe")
        for inner, expected in [
            (PMStrategy(figure1), "full"),
            (SPMStrategy(figure1, selected=[zoe]), "partial"),
            (BaselineStrategy(figure1), "none"),
        ]:
            cached = explain(CachingStrategy(inner, max_rows=10), self.QUERY)
            assert cached.features[0].coverage[0] == expected
            text = cached.describe()
            assert f"segment author.paper.venue  [index: {expected}]" in text

    def test_describe_renders(self, figure1):
        text = explain(PMStrategy(figure1), self.QUERY).describe()
        assert "strategy        : pm" in text
        assert "author.paper.venue" in text

    def test_odd_length_tail(self, figure1):
        plan = explain(
            BaselineStrategy(figure1),
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue.paper TOP 4;",
        )
        assert str(plan.features[0].tail) == "venue.paper"


class TestOutlierDetector:
    QUERY = (
        'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
        "JUDGED BY author.paper.venue TOP 3;"
    )

    def test_default_strategy_baseline(self, figure1):
        detector = OutlierDetector(figure1)
        assert detector.strategy.name == "baseline"
        assert len(detector.detect(self.QUERY)) == 3

    def test_strategy_by_name(self, figure1):
        assert OutlierDetector(figure1, strategy="pm").strategy.name == "pm"

    def test_strategy_instance_passthrough(self, figure1):
        strategy = PMStrategy(figure1)
        detector = OutlierDetector(figure1, strategy=strategy)
        assert detector.strategy is strategy

    def test_spm_with_workload(self, figure1):
        workload = [TEMPLATE_Q1.render("Zoe")]
        detector = OutlierDetector(
            figure1, strategy="spm", spm_workload=workload, spm_threshold=0.5
        )
        zoe = figure1.find_vertex("author", "Zoe")
        assert detector.strategy.index.has_row(
            MetaPath.parse("author.paper.venue"), zoe.index
        )

    def test_measure_name(self, figure1):
        assert OutlierDetector(figure1, measure="pathsim").measure_name == "pathsim"

    def test_detect_many(self, figure1):
        detector = OutlierDetector(figure1)
        results, stats = detector.detect_many([self.QUERY, self.QUERY])
        assert len(results) == 2
        assert stats.queries == 2

    def test_explain(self, figure1):
        plan = OutlierDetector(figure1, strategy="pm").explain(self.QUERY)
        assert plan.strategy == "pm"

    def test_index_size(self, figure1):
        assert OutlierDetector(figure1).index_size_bytes() == 0
        assert OutlierDetector(figure1, strategy="pm").index_size_bytes() > 0


class TestExecutionStats:
    def test_merge_accumulates(self):
        first = ExecutionStats()
        first.timer.add(PHASE_NOT_INDEXED, 1.0)
        first.traversed_vectors = 3
        first.wall_seconds = 2.0
        second = ExecutionStats()
        second.timer.add(PHASE_INDEXED, 0.5)
        second.indexed_vectors = 2
        second.wall_seconds = 1.0
        first.merge(second)
        assert first.not_indexed_seconds == 1.0
        assert first.indexed_seconds == 0.5
        assert first.traversed_vectors == 3
        assert first.indexed_vectors == 2
        assert first.queries == 2
        assert first.wall_seconds == 3.0

    def test_breakdown_keys_in_paper_order(self):
        stats = ExecutionStats()
        assert list(stats.breakdown()) == [
            PHASE_NOT_INDEXED,
            PHASE_INDEXED,
            PHASE_SCORING,
        ]
