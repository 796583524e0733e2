"""Integration tests for the efficiency claims (paper Section 7.3 shape).

Absolute times are environment-dependent; these tests assert the *relative*
claims: indexed strategies beat the baseline, SPM trades index size for
speed, and the SPM threshold sweep is monotone in index size.
"""

import pytest

from repro.datagen.workloads import generate_query_set
from repro.engine.detector import OutlierDetector
from repro.engine.index import build_pm_index, build_spm_index
from repro.engine.optimizer import WorkloadAnalyzer
from repro.query.templates import QUERY_TEMPLATES, TEMPLATE_Q1


@pytest.fixture(scope="module")
def workload(ego_corpus):
    return generate_query_set(ego_corpus.network, TEMPLATE_Q1, 40, seed=17)


class TestFigure3Shape:
    """Strategy comparisons use ``materialization_seconds``: batched
    execution collapsed end-to-end times on test-sized corpora to within
    timer noise, and parsing/scoring are identical across strategies —
    the materialization phases are what Figure 3 varies."""

    def test_pm_faster_than_baseline(self, ego_corpus, workload):
        network = ego_corpus.network
        baseline = OutlierDetector(network, strategy="baseline")
        pm = OutlierDetector(network, strategy="pm")
        __, baseline_stats = baseline.detect_many(workload)
        __, pm_stats = pm.detect_many(workload)
        assert (
            pm_stats.materialization_seconds
            < baseline_stats.materialization_seconds
        )

    def test_spm_faster_than_baseline(self, ego_corpus, workload):
        network = ego_corpus.network
        baseline = OutlierDetector(network, strategy="baseline")
        spm = OutlierDetector(
            network, strategy="spm", spm_workload=workload, spm_threshold=0.01
        )
        __, baseline_stats = baseline.detect_many(workload)
        __, spm_stats = spm.detect_many(workload)
        assert (
            spm_stats.materialization_seconds
            < baseline_stats.materialization_seconds
        )


class TestIndexSizeTradeoffs:
    def test_spm_index_smaller_than_pm(self, ego_corpus, workload):
        network = ego_corpus.network
        analyzer = WorkloadAnalyzer(network)
        analyzer.analyze_many(workload)
        spm_index = analyzer.build_index(0.05)
        pm_index = build_pm_index(network)
        assert 0 < spm_index.size_bytes() < pm_index.size_bytes()

    def test_figure5b_threshold_monotonicity(self, ego_corpus, workload):
        """Index size is non-increasing in the frequency threshold."""
        network = ego_corpus.network
        analyzer = WorkloadAnalyzer(network)
        analyzer.analyze_many(workload)
        sizes = [
            analyzer.build_index(threshold).size_bytes()
            for threshold in (0.001, 0.01, 0.05, 0.1)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_lower_threshold_indexes_more_vertices(self, ego_corpus, workload):
        network = ego_corpus.network
        analyzer = WorkloadAnalyzer(network)
        analyzer.analyze_many(workload)
        low = set(analyzer.frequent_vertices(0.01))
        high = set(analyzer.frequent_vertices(0.2))
        assert high <= low


class TestFigure4PhaseShape:
    def test_spm_records_both_materialization_phases(self, ego_corpus, workload):
        """With a selective index, some vectors hit and some traverse."""
        network = ego_corpus.network
        detector = OutlierDetector(
            network, strategy="spm", spm_workload=workload[:10], spm_threshold=0.2
        )
        __, stats = detector.detect_many(workload)
        assert stats.indexed_vectors > 0
        assert stats.traversed_vectors > 0
        assert stats.not_indexed_seconds > 0
        assert stats.indexed_seconds > 0

    def test_not_indexed_dominates_indexed(self, ego_corpus, workload):
        """With most vectors uncovered, the not-indexed phase dominates
        total materialization time — the Figure 4 shape.  Block-granular
        accounting attributes time by element counts rather than per-row
        timers, so the aggregate dominance (not a per-vector marginal-cost
        comparison) is the invariant that survives batching."""
        network = ego_corpus.network
        detector = OutlierDetector(
            network, strategy="spm", spm_workload=workload[:10], spm_threshold=0.2
        )
        __, stats = detector.detect_many(workload)
        assert stats.traversed_vectors > stats.indexed_vectors
        assert stats.not_indexed_seconds > stats.indexed_seconds


class TestAllTemplatesRun:
    @pytest.mark.parametrize("template", QUERY_TEMPLATES, ids=lambda t: t.name)
    def test_template_workloads_execute(self, ego_corpus, template):
        network = ego_corpus.network
        queries = generate_query_set(network, template, 10, seed=23)
        detector = OutlierDetector(network, strategy="pm")
        results, stats = detector.detect_many(queries)
        assert results, f"no query of template {template.name} produced results"
        for result in results:
            assert len(result) <= 10
