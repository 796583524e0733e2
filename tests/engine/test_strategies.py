"""Tests for :mod:`repro.engine.strategies` — correctness and phase accounting."""

import numpy as np
import pytest

from repro.engine.caching import CachingStrategy
from repro.engine.index import build_pm_index, build_spm_index
from repro.engine.resilience import FallbackStrategy
from repro.engine.stats import ExecutionStats
from repro.engine.strategies import (
    BaselineStrategy,
    PMStrategy,
    SPMStrategy,
    make_strategy,
)
from repro.exceptions import ExecutionError, MetaPathError
from repro.metapath.materialize import materialize
from repro.metapath.metapath import MetaPath

PV = MetaPath.parse("author.paper.venue")
PCA = MetaPath.parse("author.paper.author")
LONG = MetaPath.parse("author.paper.venue.paper.author")
ODD = MetaPath.parse("author.paper.venue.paper.author.paper")


def all_strategies(network, selected=None):
    return [
        BaselineStrategy(network),
        PMStrategy(network),
        SPMStrategy(network, selected=selected or []),
        SPMStrategy(network, selected=list(network.vertices("author"))),
    ]


class TestCorrectnessAcrossStrategies:
    @pytest.mark.parametrize("path", [PV, PCA, LONG, ODD], ids=str)
    def test_rows_match_ground_truth(self, figure1, path):
        truth = materialize(figure1, path)
        for strategy in all_strategies(figure1):
            for vertex in figure1.vertices("author"):
                row = strategy.neighbor_row(path, vertex.index)
                assert (row != truth.getrow(vertex.index)).nnz == 0, (
                    f"{strategy.name} row mismatch for {path} at {vertex}"
                )

    @pytest.mark.parametrize("path", [PV, LONG], ids=str)
    def test_matrices_match_ground_truth(self, figure1, path):
        truth = materialize(figure1, path)
        indices = [v.index for v in figure1.vertices("author")]
        for strategy in all_strategies(figure1):
            block = strategy.neighbor_matrix(path, indices)
            assert (block != truth).nnz == 0

    def test_single_hop_path(self, figure1):
        path = MetaPath.parse("author.paper")
        truth = figure1.adjacency("author", "paper")
        for strategy in all_strategies(figure1):
            row = strategy.neighbor_row(path, 0)
            assert (row != truth.getrow(0)).nnz == 0

    def test_length0_path_is_identity(self, figure1):
        path = MetaPath(("author",))
        for strategy in (PMStrategy(figure1), SPMStrategy(figure1)):
            row = strategy.neighbor_row(path, 1)
            assert row.nnz == 1
            assert row[0, 1] == 1.0

    def test_empty_matrix_request(self, figure1):
        for strategy in all_strategies(figure1):
            block = strategy.neighbor_matrix(PV, [])
            assert block.shape == (0, figure1.num_vertices("venue"))

    def test_synthetic_corpus_equivalence(self, small_corpus):
        """Strategies agree on a larger, messier network too."""
        truth = materialize(small_corpus, LONG)
        indices = list(range(0, small_corpus.num_vertices("author"), 7))
        selected = [v for v in small_corpus.vertices("author")][::3]
        strategies = [
            BaselineStrategy(small_corpus),
            PMStrategy(small_corpus),
            SPMStrategy(small_corpus, selected=selected),
        ]
        for strategy in strategies:
            block = strategy.neighbor_matrix(LONG, indices)
            expected = truth[indices, :]
            assert abs(block - expected).max() < 1e-9


class TestValidation:
    def test_invalid_path_rejected(self, figure1):
        bad = MetaPath.parse("author.venue")
        for strategy in all_strategies(figure1):
            with pytest.raises(MetaPathError):
                strategy.neighbor_row(bad, 0)

    @pytest.mark.parametrize("bad", [-1, "n", 999])
    @pytest.mark.parametrize(
        "make",
        [
            BaselineStrategy,
            PMStrategy,
            SPMStrategy,
            lambda network: CachingStrategy(BaselineStrategy(network)),
            FallbackStrategy,
        ],
        ids=["baseline", "pm", "spm", "cached", "ladder"],
    )
    def test_out_of_range_vertex(self, figure1, make, bad):
        """Regression: only PM range-checked ``neighbor_row``; elsewhere
        ``n`` or ``999`` escaped as a bare IndexError and ``-1`` silently
        returned an all-zero vector."""
        strategy = make(figure1)
        index = figure1.num_vertices("author") if bad == "n" else bad
        with pytest.raises(MetaPathError, match="out of range"):
            strategy.neighbor_row(PV, index)
        with pytest.raises(MetaPathError, match="out of range"):
            strategy.neighbor_matrix(LONG, [0, index])

    def test_pm_refuses_a_segment_it_has_no_matrix_for(self, figure1):
        """What PM refuses and SPM tolerates: SPM computes an uncovered
        segment, PM treats it as a broken index."""
        index = build_pm_index(figure1, paths=[PV])
        assert (
            SPMStrategy(figure1, index=index).neighbor_matrix(PCA, [0])
            != BaselineStrategy(figure1).neighbor_matrix(PCA, [0])
        ).nnz == 0
        with pytest.raises(ExecutionError, match="missing the matrix"):
            PMStrategy(figure1, index=index).neighbor_matrix(PCA, [0])
        with pytest.raises(ExecutionError, match="missing the matrix"):
            PMStrategy(figure1, index=index).neighbor_matrix(LONG, [0])

    def test_make_strategy_names(self, figure1):
        assert make_strategy(figure1, "baseline").name == "baseline"
        assert make_strategy(figure1, "PM").name == "pm"
        assert make_strategy(figure1, "spm").name == "spm"

    def test_make_strategy_unknown(self, figure1):
        with pytest.raises(ExecutionError, match="unknown strategy"):
            make_strategy(figure1, "turbo")

    def test_make_strategy_spm_selected(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        strategy = make_strategy(figure1, "spm", selected=[zoe])
        assert strategy.index.has_row(PV, zoe.index)


class TestPhaseAccounting:
    def test_baseline_counts_traversals(self, figure1):
        stats = ExecutionStats()
        BaselineStrategy(figure1).neighbor_row(PV, 0, stats)
        assert stats.traversed_vectors == 1
        assert stats.indexed_vectors == 0
        assert stats.not_indexed_seconds > 0
        assert stats.indexed_seconds == 0

    def test_pm_counts_indexed(self, figure1):
        stats = ExecutionStats()
        PMStrategy(figure1).neighbor_row(PV, 0, stats)
        assert stats.indexed_vectors == 1
        assert stats.traversed_vectors == 0
        assert stats.indexed_seconds > 0

    def test_pm_bulk_counts_all_vectors(self, figure1):
        stats = ExecutionStats()
        PMStrategy(figure1).neighbor_matrix(PV, [0, 1, 2], stats)
        assert stats.indexed_vectors == 3

    def test_spm_hit_vs_miss_phases(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        strategy = SPMStrategy(figure1, selected=[zoe])
        hit_stats = ExecutionStats()
        strategy.neighbor_row(PV, zoe.index, hit_stats)
        assert hit_stats.indexed_vectors == 1
        assert hit_stats.indexed_seconds > 0
        assert hit_stats.not_indexed_seconds == 0

        other = (zoe.index + 1) % figure1.num_vertices("author")
        miss_stats = ExecutionStats()
        strategy.neighbor_row(PV, other, miss_stats)
        assert miss_stats.traversed_vectors == 1
        assert miss_stats.not_indexed_seconds > 0

    def test_index_size_reporting(self, figure1):
        assert BaselineStrategy(figure1).index_size_bytes() == 0
        assert PMStrategy(figure1).index_size_bytes() > 0
        zoe = figure1.find_vertex("author", "Zoe")
        spm = SPMStrategy(figure1, selected=[zoe])
        assert 0 < spm.index_size_bytes() < PMStrategy(figure1).index_size_bytes()

    def test_prebuilt_index_reused(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        index, _ = build_spm_index(figure1, [zoe])
        strategy = SPMStrategy(figure1, index=index)
        assert strategy.index is index
