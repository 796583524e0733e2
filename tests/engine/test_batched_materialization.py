"""Unit tests for the batched materialization layer.

Covers the canonical-output contract (float64, sorted, duplicate-free —
the dtype-drift regression), block counters, and the block-mode phase
accounting: attribution lands only in the two materialization phases,
never exceeds measured wall time, and the segment-fetch counters match a
definition-side count of fetches against the selected vertex set.
"""

import math
import time

import numpy as np
import pytest

from repro.engine.caching import CachingStrategy
from repro.engine.stats import PHASE_INDEXED, PHASE_NOT_INDEXED, ExecutionStats
from repro.engine.strategies import (
    BLOCK_ROWS,
    BaselineStrategy,
    PMStrategy,
    SPMStrategy,
)
from repro.hin.bibliographic import BibliographicNetworkBuilder, Publication
from repro.metapath.metapath import MetaPath
from tests.properties.test_batched_materialization import definition_counts

COAUTHOR = MetaPath(("author", "paper", "author"))
TWO_SEGMENT = MetaPath(("author", "paper", "venue", "paper", "author"))


@pytest.fixture(scope="module")
def network():
    builder = BibliographicNetworkBuilder()
    publications = []
    for p in range(40):
        publications.append(
            Publication(
                key=f"p{p}",
                authors=[f"A{p % 12}", f"A{(p * 3 + 1) % 12}"],
                venue=f"V{p % 4}",
                terms=[f"t{p % 6}", f"t{(p + 2) % 6}"],
            )
        )
    builder.add_publications(publications)
    return builder.build()


def _strategies(network):
    selected = list(network.vertices("author"))[::3]
    return [
        BaselineStrategy(network),
        PMStrategy(network),
        SPMStrategy(network, selected=selected),
        CachingStrategy(BaselineStrategy(network), max_rows=256),
    ]


class TestCanonicalOutput:
    """Regression: every strategy returns float64 CSR in canonical form
    (sorted, duplicate-free indices) from both the row and bulk APIs."""

    @pytest.mark.parametrize("path", [COAUTHOR, TWO_SEGMENT])
    def test_rows_and_matrices_are_canonical(self, network, path):
        indices = list(range(network.num_vertices("author")))
        for strategy in _strategies(network):
            row = strategy.neighbor_row(path, indices[0])
            block = strategy.neighbor_matrix(path, indices)
            for matrix in (row, block):
                assert matrix.dtype == np.float64, strategy.name
                assert matrix.has_sorted_indices, strategy.name
                for start, stop in zip(matrix.indptr, matrix.indptr[1:]):
                    columns = matrix.indices[start:stop]
                    assert np.all(np.diff(columns) > 0), strategy.name

    def test_warm_cache_stays_canonical(self, network):
        cached = CachingStrategy(BaselineStrategy(network), max_rows=256)
        indices = list(range(network.num_vertices("author")))
        cold = cached.neighbor_matrix(COAUTHOR, indices)
        warm = cached.neighbor_matrix(COAUTHOR, indices)
        assert warm.dtype == np.float64
        assert warm.has_sorted_indices
        assert np.array_equal(cold.indptr, warm.indptr)
        assert np.array_equal(cold.indices, warm.indices)
        assert np.array_equal(cold.data, warm.data)


class TestBlockCounters:
    def test_block_count_and_vector_counters(self, network):
        indices = list(range(network.num_vertices("author")))
        expected_blocks = math.ceil(len(indices) / BLOCK_ROWS)

        baseline_stats = ExecutionStats()
        BaselineStrategy(network).neighbor_matrix(
            COAUTHOR, indices, baseline_stats
        )
        assert baseline_stats.materialized_blocks == expected_blocks
        assert baseline_stats.traversed_vectors == len(indices)
        assert baseline_stats.indexed_vectors == 0

        pm_stats = ExecutionStats()
        PMStrategy(network).neighbor_matrix(COAUTHOR, indices, pm_stats)
        assert pm_stats.materialized_blocks == expected_blocks
        assert pm_stats.indexed_vectors == len(indices)
        assert pm_stats.traversed_vectors == 0

    @pytest.mark.parametrize("path", [COAUTHOR, TWO_SEGMENT])
    def test_counters_match_definition(self, network, path):
        """Element-count accounting reproduces the definition's segment
        fetches exactly, later-segment expansions included, and the same
        rule gives PM all-indexed and the baseline all-traversed counts."""
        selected = set(list(network.vertices("author"))[::3])
        indices = list(range(network.num_vertices("author")))
        for strategy, covered in (
            (SPMStrategy(network, selected=selected), selected.__contains__),
            (PMStrategy(network), lambda vertex: True),
            (BaselineStrategy(network), lambda vertex: False),
        ):
            stats = ExecutionStats()
            strategy.neighbor_matrix(path, indices, stats)
            indexed, traversed = definition_counts(network, path, indices, covered)
            assert stats.indexed_vectors == indexed, strategy.name
            assert stats.traversed_vectors == traversed, strategy.name
            if strategy.name == "spm":
                assert indexed > 0 and traversed > 0


class TestBlockPhaseAttribution:
    def test_attribution_bounded_by_wall_and_complete(self, network):
        """Block-mode time lands only in the two materialization phases,
        both phases receive time under mixed coverage, and their sum never
        exceeds the measured wall time of the call."""
        selected = list(network.vertices("author"))[::3]
        strategy = SPMStrategy(network, selected=selected)
        indices = list(range(network.num_vertices("author")))
        stats = ExecutionStats()
        started = time.perf_counter()
        strategy.neighbor_matrix(TWO_SEGMENT, indices, stats)
        elapsed = time.perf_counter() - started

        assert stats.indexed_seconds > 0
        assert stats.not_indexed_seconds > 0
        assert set(stats.timer.totals) <= {PHASE_INDEXED, PHASE_NOT_INDEXED}
        assert stats.materialization_seconds <= elapsed
        assert stats.materialization_seconds == (
            stats.indexed_seconds + stats.not_indexed_seconds
        )
