"""An anchored chain's members: ``neighbor_support`` against the row route.

Under PM a chain of length at most 2 is one stored row — the full matrix of
a length-2 path, the adjacency of a single hop — and its members are read
as a slice of that row.  Every other strategy and path still reads them off
``neighbor_row``.  These tests pin the slice to the row route: the same
members, the same ``ExecutionStats``, the same errors, the same fault point
and the same demotion under the degradation ladder.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro import faultinject
from repro.engine.caching import CachingStrategy
from repro.engine.executor import QueryExecutor
from repro.engine.resilience import FallbackStrategy
from repro.engine.index import MetaPathIndex
from repro.engine.stats import ExecutionStats
from repro.engine.strategies import (
    BaselineStrategy,
    PMStrategy,
    SPMStrategy,
    make_strategy,
)
from repro.exceptions import DegradedResultWarning, ExecutionError, MetaPathError
from repro.faultinject import FaultRule
from repro.hin.network import VertexId
from repro.metapath.metapath import MetaPath
from tests.engine.test_resilience import ZOE_QUERY, make_policy

PATHS = [
    MetaPath.parse("author.paper"),
    MetaPath.parse("author.paper.venue"),
    MetaPath.parse("author.paper.venue.paper"),
    MetaPath.parse("author.paper.venue.paper.author"),
]
APV = PATHS[1]


def _strategies(network):
    selected = [VertexId("author", index) for index in range(0, 60, 3)]
    return {
        "pm": PMStrategy(network),
        "spm": SPMStrategy(network, selected=selected),
        "baseline": BaselineStrategy(network),
    }


def _counters(stats: ExecutionStats) -> dict:
    return {
        "traversed": stats.traversed_vectors,
        "indexed": stats.indexed_vectors,
        "propagated": stats.propagated_vectors,
        "blocks": stats.materialized_blocks,
        "queries": stats.queries,
        "phase_counts": dict(stats.timer.counts),
    }


@pytest.fixture(scope="module")
def strategies(small_corpus):
    return _strategies(small_corpus)


class TestSameAsTheRowRoute:
    @pytest.mark.parametrize("name", ["pm", "spm", "baseline"])
    @pytest.mark.parametrize("path", PATHS, ids=lambda path: f"length{path.length}")
    def test_members_and_stats_match(self, strategies, name, path):
        strategy = strategies[name]
        authors = strategy.network.num_vertices("author")
        for vertex in (0, 1, 7, authors - 1):
            row_stats, slice_stats = ExecutionStats(), ExecutionStats()
            row = strategy.neighbor_row(path, vertex, row_stats)
            expected = np.sort(row.indices.astype(np.int64))
            support = strategy.neighbor_support(path, vertex, slice_stats)
            assert support.dtype == np.int64
            assert support.tobytes() == expected.tobytes()
            assert _counters(slice_stats) == _counters(row_stats)

    def test_pm_lookup_builds_no_row(self, strategies, monkeypatch):
        pm = strategies["pm"]
        calls = []
        original = type(pm).neighbor_matrix
        monkeypatch.setattr(
            type(pm),
            "neighbor_matrix",
            lambda self, *args, **kwargs: calls.append(args) or original(
                self, *args, **kwargs
            ),
        )
        pm.neighbor_support(PATHS[0], 3)
        pm.neighbor_support(PATHS[1], 3)
        assert calls == []
        pm.neighbor_support(PATHS[3], 3)  # a product: the row route
        assert len(calls) == 1

    def test_out_of_range_vertex_is_the_same_error(self, strategies):
        pm = strategies["pm"]
        authors = pm.network.num_vertices("author")
        for bad in (-1, authors):
            with pytest.raises(MetaPathError, match="out of range"):
                pm.neighbor_support(APV, bad)


class TestErrorsAndFaults:
    def test_stale_pm_index_is_the_same_error(self, figure1):
        strategy = PMStrategy(figure1)
        strategy.neighbor_support(APV, 0)  # fresh: works
        figure1.add_vertex("author", "Late Arrival")
        with pytest.raises(ExecutionError, match="changed after") as row_error:
            strategy.neighbor_row(APV, 0)
        with pytest.raises(ExecutionError, match="changed after") as slice_error:
            strategy.neighbor_support(APV, 0)
        assert str(slice_error.value) == str(row_error.value)

    def test_vertex_past_a_stale_tolerated_index_is_the_same_error(self, figure1):
        strategy = PMStrategy(figure1, allow_stale=True)
        late = figure1.add_vertex("author", "Late Arrival").index
        with pytest.raises(ExecutionError, match="no stored row") as row_error:
            strategy.neighbor_row(APV, late)
        with pytest.raises(ExecutionError, match="no stored row") as slice_error:
            strategy.neighbor_support(APV, late)
        assert str(slice_error.value) == str(row_error.value)
        # An older vertex is still answered from the retained matrix.
        assert strategy.neighbor_support(APV, 0).tobytes() == np.sort(
            strategy.neighbor_row(APV, 0).indices.astype(np.int64)
        ).tobytes()

    def test_missing_pm_matrix_is_the_same_error(self, figure1):
        strategy = PMStrategy(figure1, index=MetaPathIndex())
        with pytest.raises(ExecutionError, match="missing the matrix") as row_error:
            strategy.neighbor_row(APV, 0)
        with pytest.raises(ExecutionError, match="missing the matrix") as slice_error:
            strategy.neighbor_support(APV, 0)
        assert str(slice_error.value) == str(row_error.value)

    def test_lookup_passes_the_matrix_multiply_point(self, figure1):
        pm = PMStrategy(figure1)
        with faultinject.inject(FaultRule(point="matrix_multiply", times=None)):
            with pytest.raises(ExecutionError, match="matrix_multiply"):
                pm.neighbor_row(APV, 0)
            with pytest.raises(ExecutionError, match="matrix_multiply"):
                pm.neighbor_support(APV, 0)
            # A single hop is an adjacency read on both routes: no point.
            pm.neighbor_support(PATHS[0], 0)

    def test_fault_on_the_lookup_demotes_the_ladder(self, figure1):
        ladder = FallbackStrategy(figure1, policy=make_policy(retry_attempts=1))
        assert ladder.active_rung == "pm"
        expected = BaselineStrategy(figure1).neighbor_support(APV, 0)
        with faultinject.inject(FaultRule(point="matrix_multiply", times=None)):
            support = ladder.neighbor_support(APV, 0)
        assert ladder.active_rung != "pm"
        assert ladder.events[0][0] == "pm"
        assert "neighbor_support failed" in ladder.degradation_reason
        assert support.tobytes() == expected.tobytes()

    def test_fault_on_an_anchored_chain_marks_the_result_degraded(self, figure1):
        policy = make_policy(retry_attempts=1)
        executor = QueryExecutor(
            make_strategy(figure1, "pm", resilience=policy), resilience=policy
        )
        clean = QueryExecutor(BaselineStrategy(figure1)).execute(ZOE_QUERY)
        with faultinject.inject(
            FaultRule(point="matrix_multiply", times=1)
        ), pytest.warns(DegradedResultWarning):
            result = executor.execute(ZOE_QUERY)
        assert result.degraded
        assert "neighbor_support failed" in result.degradation_reason
        assert [(e.name, e.score) for e in result] == [
            (e.name, e.score) for e in clean
        ]


class TestRowCache:
    def test_lookup_paths_bypass_the_row_cache(self, small_corpus):
        cached = CachingStrategy(PMStrategy(small_corpus))
        cached.neighbor_support(PATHS[0], 5)
        cached.neighbor_support(PATHS[1], 5)
        assert (cached.hits, cached.misses, cached.cached_rows) == (0, 0, 0)

    def test_other_paths_are_row_cache_reads(self, small_corpus):
        for inner in (PMStrategy(small_corpus), BaselineStrategy(small_corpus)):
            cached = CachingStrategy(inner)
            first = cached.neighbor_support(PATHS[3], 5)
            again = cached.neighbor_support(PATHS[3], 5)
            assert (cached.hits, cached.misses) == (1, 1)
            assert first.tobytes() == again.tobytes()
        # Under the baseline even a length-2 path is a product: cached.
        cached = CachingStrategy(BaselineStrategy(small_corpus))
        cached.neighbor_support(APV, 5)
        assert cached.misses == 1


class TestLazyTranspose:
    def test_a_pushed_hop_forms_no_transpose(self, small_corpus, monkeypatch):
        """Only a swept hop multiplies by a transpose; one anchor's push
        over the stored matrices sweeps nothing."""
        pm = PMStrategy(small_corpus)
        path = MetaPath.parse("author.paper.author.paper.author")
        transposes = []
        for kind in (sparse.csr_matrix, sparse.csc_matrix):
            original = kind.transpose
            monkeypatch.setattr(
                kind,
                "transpose",
                lambda self, *a, _original=original, **k: transposes.append(1)
                or _original(self, *a, **k),
            )
        one = np.array([0], dtype=np.int64)
        sums = pm.connectivity_sums(path, one, one)
        assert transposes == []
        expected = pm.neighbor_row(path, 0)
        assert sums[0] == expected.multiply(expected).sum()
