"""Tests for :mod:`repro.engine.caching`."""

import numpy as np
import pytest

from repro import faultinject
from repro.engine.caching import CachingStrategy
from repro.engine.executor import QueryExecutor
from repro.engine.stats import ExecutionStats
from repro.engine.strategies import BaselineStrategy, PMStrategy
from repro.exceptions import ExecutionError
from repro.faultinject import FaultRule
from repro.metapath.metapath import MetaPath
from repro.utils.sparsetools import sparse_row_bytes

PV = MetaPath.parse("author.paper.venue")
PCA = MetaPath.parse("author.paper.author")
PVPA = MetaPath.parse("author.paper.venue.paper.author")


class TestCachingStrategy:
    def test_rows_match_inner(self, figure1):
        inner = BaselineStrategy(figure1)
        cached = CachingStrategy(inner)
        for vertex in figure1.vertices("author"):
            direct = inner.neighbor_row(PV, vertex.index)
            via_cache = cached.neighbor_row(PV, vertex.index)
            assert (direct != via_cache).nnz == 0

    def test_hit_miss_accounting(self, figure1):
        cached = CachingStrategy(BaselineStrategy(figure1))
        cached.neighbor_row(PV, 0)
        cached.neighbor_row(PV, 0)
        cached.neighbor_row(PV, 1)
        assert cached.misses == 2
        assert cached.hits == 1
        assert cached.hit_rate == pytest.approx(1 / 3)

    def test_distinct_paths_cached_separately(self, figure1):
        cached = CachingStrategy(BaselineStrategy(figure1))
        cached.neighbor_row(PV, 0)
        cached.neighbor_row(PCA, 0)
        assert cached.misses == 2
        assert cached.cached_rows == 2

    def test_lru_eviction(self, figure1):
        cached = CachingStrategy(BaselineStrategy(figure1), max_rows=2)
        cached.neighbor_row(PV, 0)
        cached.neighbor_row(PV, 1)
        cached.neighbor_row(PV, 2)  # evicts (PV, 0)
        assert cached.cached_rows == 2
        cached.neighbor_row(PV, 0)  # miss again
        assert cached.misses == 4

    def test_lru_recency_updated_on_hit(self, figure1):
        cached = CachingStrategy(BaselineStrategy(figure1), max_rows=2)
        cached.neighbor_row(PV, 0)
        cached.neighbor_row(PV, 1)
        cached.neighbor_row(PV, 0)  # refresh 0
        cached.neighbor_row(PV, 2)  # evicts 1, not 0
        cached.neighbor_row(PV, 0)
        assert cached.hits == 2

    def test_hits_record_no_phase_time(self, figure1):
        cached = CachingStrategy(BaselineStrategy(figure1))
        warm = ExecutionStats()
        cached.neighbor_row(PV, 0, warm)
        cold_seconds = warm.not_indexed_seconds
        assert cold_seconds > 0
        again = ExecutionStats()
        cached.neighbor_row(PV, 0, again)
        assert again.not_indexed_seconds == 0
        assert again.traversed_vectors == 0

    def test_clear(self, figure1):
        cached = CachingStrategy(BaselineStrategy(figure1))
        cached.neighbor_row(PV, 0)
        cached.clear()
        assert cached.cached_rows == 0
        assert cached.hit_rate == 0.0

    def test_invalid_capacity(self, figure1):
        with pytest.raises(ExecutionError):
            CachingStrategy(BaselineStrategy(figure1), max_rows=0)

    def test_index_size_includes_cache(self, figure1):
        cached = CachingStrategy(PMStrategy(figure1))
        base = cached.index_size_bytes()
        cached.neighbor_row(PVPA, 0)  # PM answers PV by lookup: not cached
        assert cached.index_size_bytes() > base

    def test_running_byte_total_matches_recomputed_sum(self, figure1):
        """``index_size_bytes`` reads a running total; it must agree with a
        walk over the stored rows after inserts, re-inserts, evictions, a
        faulted read, ``clear()`` and a version flush."""
        cached = CachingStrategy(BaselineStrategy(figure1), max_rows=3)

        def recomputed():
            return sum(
                sparse_row_bytes(len(indices)) for indices, _ in cached._rows.values()
            )

        authors = list(range(figure1.num_vertices("author")))
        for path in (PV, PCA):
            cached.neighbor_matrix(path, authors + authors[:2])
            assert cached.index_size_bytes() == recomputed() > 0
        assert cached.cached_rows == 3  # evictions happened
        with faultinject.inject(FaultRule(point="cache_read", times=1)):
            cached.neighbor_matrix(PCA, authors[:2])
        assert cached.faulted_reads > 0
        assert cached.index_size_bytes() == recomputed() > 0
        figure1.add_vertex("venue", "NEWVENUE")  # version bump: next read flushes
        cached.neighbor_row(PV, 0)
        assert cached.cached_rows == 1
        assert cached.index_size_bytes() == recomputed() > 0
        cached.clear()
        assert cached.index_size_bytes() == 0

    def test_results_never_alias_cache_storage(self, figure1):
        """Regression: a hit used to hand out the cache's own matrix, so a
        caller writing to its result poisoned every later request."""
        cached = CachingStrategy(BaselineStrategy(figure1))
        clean = BaselineStrategy(figure1).neighbor_matrix(PV, [0, 1]).toarray()
        cached.neighbor_row(PV, 0).data[:] = 99  # the miss that fills the row
        cached.neighbor_row(PV, 0).data[:] = 99  # a row hit
        cached.neighbor_matrix(PV, [0]).data[:] = 99  # a one-row block hit
        cached.neighbor_matrix(PV, [0, 1]).data[:] = 99  # a mixed block
        cached.neighbor_matrix(PV, [0, 1]).indices[:] = 0
        assert np.array_equal(cached.neighbor_row(PV, 0).toarray(), clean[:1])
        assert np.array_equal(cached.neighbor_matrix(PV, [0, 1]).toarray(), clean)

    def test_pm_lookup_paths_bypass_the_cache(self, figure1):
        """PM answers paths up to length 2 by one gather: no rows stored,
        no counters moved, results still the inner strategy's."""
        inner = PMStrategy(figure1)
        cached = CachingStrategy(inner)
        block = cached.neighbor_matrix(PV, [2, 0, 2])
        assert (block != inner.neighbor_matrix(PV, [2, 0, 2])).nnz == 0
        assert (cached.neighbor_row(PV, 1) != inner.neighbor_row(PV, 1)).nnz == 0
        assert (cached.hits, cached.misses, cached.cached_rows) == (0, 0, 0)
        cached.neighbor_matrix(PVPA, [0, 1])  # a product follows the lookup
        cached.neighbor_matrix(PVPA, [1, 0])
        assert (cached.hits, cached.misses, cached.cached_rows) == (2, 2, 2)

    def test_name_reflects_inner(self, figure1):
        assert CachingStrategy(BaselineStrategy(figure1)).name == "cached-baseline"

    def test_executor_results_unchanged(self, figure1):
        query = (
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        plain = QueryExecutor(BaselineStrategy(figure1)).execute(query)
        cached_strategy = CachingStrategy(BaselineStrategy(figure1))
        executor = QueryExecutor(cached_strategy)
        first = executor.execute(query)
        second = executor.execute(query)
        assert first.names() == second.names() == plain.names()
        assert cached_strategy.hits > 0

    def test_cache_invalidated_on_network_mutation(self, figure1):
        """A mutation must flush the cache — never serve stale vectors."""
        cached = CachingStrategy(BaselineStrategy(figure1))
        zoe = figure1.find_vertex("author", "Zoe")
        before = cached.neighbor_row(PV, zoe.index)
        # Give Zoe a new paper in a new venue.
        paper = figure1.add_vertex("paper", "extra")
        venue = figure1.add_vertex("venue", "NEWVENUE")
        figure1.add_edge(paper, zoe)
        figure1.add_edge(paper, venue)
        after = cached.neighbor_row(PV, zoe.index)
        assert after.shape[1] == before.shape[1] + 1
        assert after.sum() == before.sum() + 1
        assert cached.cached_rows == 1  # old entries flushed

    def test_repeated_workload_mostly_hits(self, ego_corpus):
        from repro.datagen.workloads import generate_query_set
        from repro.query.templates import TEMPLATE_Q1

        network = ego_corpus.network
        workload = generate_query_set(network, TEMPLATE_Q1, 10, seed=4)
        cached = CachingStrategy(BaselineStrategy(network))
        executor = QueryExecutor(cached)
        executor.execute_many(list(workload))
        cold_misses = cached.misses
        executor.execute_many(list(workload))
        assert cached.misses == cold_misses  # second pass is all hits


class TestConcurrency:
    """Regression: the row cache is shared by the service's worker pool, so
    concurrent hammering must stay consistent — exact counters, correct rows,
    bounded size — with no torn LRU state."""

    def test_concurrent_reads_consistent(self, figure1):
        import threading

        inner = BaselineStrategy(figure1)
        cached = CachingStrategy(inner, max_rows=8)
        num_authors = figure1.num_vertices("author")
        expected = {
            (path, i): inner.neighbor_row(path, i).toarray().tolist()
            for path in (PV, PCA)
            for i in range(num_authors)
        }
        calls_per_thread = 200
        errors = []
        barrier = threading.Barrier(8)

        def hammer(seed):
            barrier.wait()
            for call in range(calls_per_thread):
                path = PV if (seed + call) % 2 else PCA
                index = (seed * 7 + call) % num_authors
                try:
                    row = cached.neighbor_row(path, index)
                    if row.toarray().tolist() != expected[(path, index)]:
                        errors.append((path, index, "wrong row"))
                except Exception as error:  # noqa: BLE001 - recorded for assert
                    errors.append((path, index, error))

        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        # Exact accounting: every call is either a hit or a miss, never lost.
        assert cached.hits + cached.misses == 8 * calls_per_thread
        assert cached.cached_rows <= 8
