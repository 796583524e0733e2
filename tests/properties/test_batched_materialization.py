"""Property-based tests: the one materialization routine against the
definition.

``neighbor_matrix`` must return, for every strategy and every index
coverage, a matrix *structurally identical* (dtype, indptr, indices, data)
to the rows the paper's definition gives —
:func:`repro.metapath.counting.neighbor_counts`, the hop-by-hop path count —
and must count exactly the segment fetches the definition makes against the
covered vertex set.  Swapping the index is the only way to change a
strategy's behaviour.  The row cache's block routine returns exactly what
its inner strategy does under eviction, duplicates and faults.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro import faultinject
from repro.engine.caching import CachingStrategy
from repro.engine.index import MetaPathIndex, build_pm_index
from repro.engine.stats import ExecutionStats
from repro.engine.strategies import BaselineStrategy, PMStrategy, SPMStrategy
from repro.faultinject import FaultRule
from repro.hin.network import VertexId
from repro.metapath.counting import neighbor_counts
from repro.metapath.materialize import decompose_length2
from tests.properties.test_strategy_properties import PATHS, networks


def _requests(draw, network):
    """A request list over author indices: unsorted, duplicates allowed."""
    count = network.num_vertices("author")
    return draw(
        st.lists(st.integers(0, count - 1), min_size=1, max_size=24)
    )


def definition_rows(network, path, indices):
    """``φ_path`` rows from the definition, as a canonical float64 CSR."""
    columns, values, indptr = [], [], [0]
    for index in indices:
        counts = neighbor_counts(network, path, VertexId(path.source, index))
        for column in sorted(counts):
            columns.append(column)
            values.append(counts[column])
        indptr.append(len(columns))
    return sparse.csr_matrix(
        (
            np.asarray(values, dtype=np.float64),
            np.asarray(columns, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(len(indices), network.num_vertices(path.target)),
    )


def definition_counts(network, path, indices, covered):
    """``(indexed, traversed)`` segment fetches, from the definition.

    Walking ``path`` segment by segment from each requested vertex, the row
    of a segment is fetched once per vertex the walk stands on; the fetch
    is indexed exactly when ``covered(vertex)``.  A path shorter than one
    segment fetches no segment row: each request counts as traversed.
    """
    segments, _tail = decompose_length2(path)
    if not segments:
        return 0, len(indices)
    indexed = traversed = 0
    for index in indices:
        frontier = {index}
        for segment in segments:
            reached = set()
            for vertex in frontier:
                start = VertexId(segment.source, vertex)
                if covered(start):
                    indexed += 1
                else:
                    traversed += 1
                reached.update(neighbor_counts(network, segment, start))
            frontier = reached
    return indexed, traversed


def every_other_vertex(network):
    """Half of every vertex type, so later segments mix hits and misses."""
    return [
        vertex
        for vertex_type in network.schema.vertex_types
        for vertex in list(network.vertices(vertex_type))[::2]
    ]


def _assert_identical(actual, expected, label):
    assert actual.shape == expected.shape, label
    assert actual.dtype == np.float64, label
    assert np.array_equal(actual.indptr, expected.indptr), label
    assert np.array_equal(actual.indices, expected.indices), label
    assert np.array_equal(actual.data, expected.data), label


def _counters(strategy, path, indices):
    stats = ExecutionStats()
    block = strategy.neighbor_matrix(path, indices, stats)
    return block, (
        stats.indexed_vectors,
        stats.traversed_vectors,
        stats.materialized_blocks,
    )


class TestRoutineEqualsDefinition:
    @given(networks(), st.sampled_from(PATHS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_strategy_and_coverage(self, network, path, data):
        """Coverage {empty, every-other, full} x path length 0-5 (odd tails
        included) x unsorted/duplicate requests: the bytes are the
        definition's rows and the counters the definition's fetches."""
        indices = _requests(data.draw, network)
        selected = set(every_other_vertex(network))
        # SPM under the other two coverages is the next-but-one test.
        legs = [
            (BaselineStrategy(network), lambda vertex: False),
            (SPMStrategy(network, selected=selected), selected.__contains__),
            (PMStrategy(network), lambda vertex: True),
        ]
        expected = definition_rows(network, path, indices)
        for strategy, covered in legs:
            label = f"{strategy.name} on {path}"
            block, (indexed, traversed, blocks) = _counters(strategy, path, indices)
            _assert_identical(block, expected, label)
            assert (indexed, traversed) == definition_counts(
                network, path, indices, covered
            ), label
            assert blocks == 1, label
            # The row API is the one-row block: same bytes, nothing else.
            _assert_identical(
                strategy.neighbor_row(path, indices[0]), expected[[0], :], label
            )

    @given(networks(), st.sampled_from(PATHS))
    @settings(max_examples=30, deadline=None)
    def test_spm_all_hits_and_all_misses(self, network, path):
        """Requests that are purely stored rows, or purely computed ones,
        under a partial index."""
        selected = set(every_other_vertex(network))
        strategy = SPMStrategy(network, selected=selected)
        authors = list(network.vertices("author"))
        for indices in (
            [vertex.index for vertex in authors if vertex in selected],
            [vertex.index for vertex in authors if vertex not in selected],
        ):
            if not indices:
                continue
            block, (indexed, traversed, _) = _counters(strategy, path, indices)
            _assert_identical(
                block, definition_rows(network, path, indices), f"spm on {path}"
            )
            assert (indexed, traversed) == definition_counts(
                network, path, indices, selected.__contains__
            )

    @given(networks(), st.sampled_from(PATHS), st.data())
    @settings(max_examples=40, deadline=None)
    def test_coverage_is_the_only_difference(self, network, path, data):
        """A strategy's identity is its index: SPM over an empty index is
        the baseline and over the PM index is PM, in bytes and counters."""
        indices = _requests(data.draw, network)
        pm_index = build_pm_index(network)
        for twin, named in (
            (SPMStrategy(network, index=MetaPathIndex()), BaselineStrategy(network)),
            (SPMStrategy(network, index=pm_index), PMStrategy(network, index=pm_index)),
        ):
            label = f"spm as {named.name} on {path}"
            block, counters = _counters(twin, path, indices)
            named_block, named_counters = _counters(named, path, indices)
            _assert_identical(block, named_block, label)
            assert counters == named_counters, label


class TestRowCacheEqualsDefinition:
    @given(networks(), st.sampled_from(PATHS), st.data())
    @settings(max_examples=30, deadline=None)
    def test_caching_warm_and_cold(self, network, path, data):
        indices = _requests(data.draw, network)
        expected = definition_rows(network, path, indices)

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
