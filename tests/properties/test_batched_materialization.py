"""Property-based tests: the batched ``neighbor_matrix`` path returns a
matrix *structurally identical* (dtype, indptr, indices, data) to vstacking
per-vertex ``neighbor_row`` calls — for every strategy, for SPM hit/miss
mixes, and for warm/cold caches — and the row cache's block routine returns
exactly what its inner strategy does under eviction, duplicates and faults."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro import faultinject
from repro.engine.caching import CachingStrategy
from repro.engine.strategies import (
    BaselineStrategy,
    PMStrategy,
    SPMStrategy,
    _canonical,
)
from repro.faultinject import FaultRule
from tests.properties.test_strategy_properties import PATHS, networks


def _requests(draw, network):
    """A request list over author indices: unsorted, duplicates allowed."""
    count = network.num_vertices("author")
    return draw(
        st.lists(st.integers(0, count - 1), min_size=1, max_size=24)
    )


def _per_row_reference(strategy, path, indices):
    return _canonical(
        sparse.vstack(
            [strategy.neighbor_row(path, index) for index in indices],
            format="csr",
        )
    )


def _assert_identical(actual, expected, label):
    assert actual.shape == expected.shape, label
    assert actual.dtype == np.float64, label
    assert np.array_equal(actual.indptr, expected.indptr), label
    assert np.array_equal(actual.indices, expected.indices), label
    assert np.array_equal(actual.data, expected.data), label


class TestBatchedEqualsPerRow:
    @given(networks(), st.sampled_from(PATHS), st.data())
    @settings(max_examples=40, deadline=None)
    def test_all_strategies(self, network, path, data):
        indices = _requests(data.draw, network)
        # SPM indexes every other author: requests mix hits and misses.
        selected = list(network.vertices("author"))[::2]
        strategies = [
            BaselineStrategy(network),
            PMStrategy(network),
            SPMStrategy(network, selected=selected),
        ]
        for strategy in strategies:
            expected = _per_row_reference(strategy, path, indices)
            actual = strategy.neighbor_matrix(path, indices)
            _assert_identical(actual, expected, f"{strategy.name} on {path}")

    @given(networks(), st.sampled_from(PATHS), st.data())
    @settings(max_examples=30, deadline=None)
    def test_spm_all_hits_and_all_misses(self, network, path, data):
        """The pure-hit and pure-miss partitions agree with per-row too."""
        authors = list(network.vertices("author"))
        selected = authors[::2]
        strategy = SPMStrategy(network, selected=selected)
        hit_indices = [vertex.index for vertex in selected]
        miss_indices = [
            vertex.index for vertex in authors if vertex not in selected
        ]
        for indices in (hit_indices, miss_indices):
            if not indices:
                continue
            expected = _per_row_reference(strategy, path, indices)
            actual = strategy.neighbor_matrix(path, indices)
            _assert_identical(actual, expected, f"spm on {path}")

    @given(networks(), st.sampled_from(PATHS), st.data())
    @settings(max_examples=30, deadline=None)
    def test_caching_warm_and_cold(self, network, path, data):
        indices = _requests(data.draw, network)
        plain = BaselineStrategy(network)
        expected = _per_row_reference(plain, path, indices)

        cached = CachingStrategy(BaselineStrategy(network), max_rows=1024)
        # Prime a prefix through the row path so the batch sees a
        # warm/cold mix, then verify the cold batch and a fully warm one.
        for index in indices[: len(indices) // 2]:
            cached.neighbor_row(path, index)
        mixed = cached.neighbor_matrix(path, indices)
        _assert_identical(mixed, expected, f"cached mixed on {path}")
        warm = cached.neighbor_matrix(path, indices)
        _assert_identical(warm, expected, f"cached warm on {path}")
        assert cached.hits > 0

    @given(
        networks(),
        st.sampled_from(PATHS),
        st.sampled_from([1, 3, 1024]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_caching_block_routine_equals_inner(self, network, path, max_rows, data):
        """Capacity below one block (eviction in mid-block), duplicated
        indices, interleaved hits and misses and a faulted read all return
        the inner strategy's bytes; bypassed paths never touch the cache."""
        first = _requests(data.draw, network)
        second = _requests(data.draw, network)
        selected = list(network.vertices("author"))[::2]
        for inner in (
            BaselineStrategy(network),
            PMStrategy(network),
            SPMStrategy(network, selected=selected),
        ):
            label = f"cached-{inner.name} on {path} (max_rows={max_rows})"
            cached = CachingStrategy(inner, max_rows=max_rows)
            bypassed = inner.answers_by_lookup(path)
            requested = 0
            for indices in (first, second, first, first):
                _assert_identical(
                    cached.neighbor_matrix(path, indices),
                    inner.neighbor_matrix(path, indices),
                    label,
                )
                requested += len(indices)
                assert cached.hits + cached.misses == (0 if bypassed else requested)
                assert cached.cached_rows <= max_rows
            # ``first`` was just served: with room for it, all of it is
            # cached now, and a faulted read turns every hit into a miss.
            hits = cached.hits
            with faultinject.inject(FaultRule(point="cache_read", times=1)):
                healed = cached.neighbor_matrix(path, first)
            _assert_identical(healed, inner.neighbor_matrix(path, first), label)
            if not bypassed:
                assert cached.hits == hits
                if max_rows == 1024:
                    assert cached.faulted_reads == len(first)
            else:
                assert (cached.hits, cached.misses, cached.faulted_reads) == (0, 0, 0)
            _assert_identical(
                cached.neighbor_row(path, first[0]),
                cached.neighbor_matrix(path, first[:1]),
                label,
            )
