"""The PM index a service holds: each length-2 matrix formed at first read.

``QueryService.from_network`` serves ``pm`` on the RAM tier from a
:class:`~repro.engine.index.LazyPMIndex`.  These tests pin its contract:
a missing matrix is built once however many readers race for it, a build
multiplies the adjacency of the index's own version (never the live
network), what it builds equals the eager ``build_pm_index`` byte for byte,
the process backend keeps the eager shared index, a build refused by the
ladder's memory guard demotes instead of failing the request, and a
request out of time is not a failed build.
"""

from __future__ import annotations

import json
import logging
import sys
import threading

import pytest
from hypothesis import given, settings

from repro import faultinject
from repro.engine.deadline import Deadline, deadline_scope
from repro.engine.index import LazyPMIndex, build_pm_index
from repro.engine.plan import explain
from repro.engine.resilience import CircuitBreaker, FallbackStrategy, ResiliencePolicy
from repro.engine.strategies import PMStrategy
from repro.exceptions import (
    DeadlineExceededError,
    ExecutionError,
    ResourceLimitError,
)
from repro.faultinject import FaultRule
from repro.hin.storage import MmapArrayStore
from repro.metapath.metapath import MetaPath
from repro.service import QueryService, ServiceConfig
from repro.utils.sparsetools import csr_storage_bytes
from tests.engine.test_resilience import make_policy
from tests.properties.test_strategy_properties import networks
from tests.service.test_process_backend import QUERY_GRID, _wire

APV = MetaPath.parse("author.paper.venue")


def _same_bytes(left, right) -> bool:
    return all(
        getattr(left, name).tobytes() == getattr(right, name).tobytes()
        for name in ("data", "indices", "indptr")
    ) and left.shape == right.shape


def _assert_lazy_equals_eager(network) -> None:
    eager = build_pm_index(network)
    lazy = LazyPMIndex(network)
    assert lazy.size_bytes() == 0
    for types in network.schema.length2_metapaths():
        path = MetaPath(types)
        assert _same_bytes(lazy.full_matrix(path), eager.full_matrix(path)), path
    assert lazy.size_bytes() == eager.size_bytes()
    assert lazy.coverage_summary()["rows"] == eager.coverage_summary()["rows"]


class TestBuild:
    def test_lazy_equals_eager_on_every_legal_path(self, figure1):
        _assert_lazy_equals_eager(figure1)

    @given(networks())
    @settings(max_examples=15, deadline=None)
    def test_lazy_equals_eager_on_random_networks(self, network):
        _assert_lazy_equals_eager(network)

    def test_concurrent_first_reads_build_once(self, figure1):
        index = LazyPMIndex(figure1)
        barrier = threading.Barrier(2)
        seen = []

        def read():
            barrier.wait()
            seen.append(index.full_matrix(APV))

        # The first builder stalls inside its build, so the second reader
        # arrives while the matrix is still missing.
        stall = FaultRule(point="index_build", delay_seconds=0.2)
        with faultinject.inject(stall) as injector:
            threads = [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert injector.calls["index_build"] == 1
        assert index.builds == 1
        assert len(seen) == 2 and seen[0] is seen[1]

    def test_many_readers_of_every_path_build_each_once(self, figure1):
        """A lost update would build a path twice or hand two readers two
        matrices; eight threads over every path, switching often."""
        paths = [MetaPath(types) for types in figure1.schema.length2_metapaths()]
        index = LazyPMIndex(figure1)
        seen: dict = {path: set() for path in paths}
        barrier = threading.Barrier(8)

        def read(offset):
            barrier.wait()
            for path in paths[offset:] + paths[:offset]:
                seen[path].add(id(index.full_matrix(path)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with faultinject.inject() as injector:
                threads = [
                    threading.Thread(target=read, args=(n % len(paths),))
                    for n in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert injector.calls["index_build"] == index.builds == len(paths)
        assert all(len(ids) == 1 for ids in seen.values())
        eager = build_pm_index(figure1)
        assert all(_same_bytes(index.full_matrix(p), eager.full_matrix(p)) for p in paths)

    def test_only_what_is_read_is_built_and_logged(self, figure1, caplog):
        index = LazyPMIndex(figure1)
        with caplog.at_level(logging.INFO, logger="repro.engine.index"):
            index.full_matrix(APV)
            index.full_matrix(APV)
        summary = index.coverage_summary()
        assert summary["lazy"]["legal_paths"] == len(
            list(figure1.schema.length2_metapaths())
        )
        assert (summary["full_paths"], summary["lazy"]["builds"]) == (1, 1)
        assert summary["size_bytes"] == index.size_bytes() > 0
        [record] = caplog.records
        assert "author.paper.venue" in record.getMessage()
        assert "nnz" in record.getMessage() and "ms" in record.getMessage()

    def test_explain_reads_coverage_and_builds_nothing(self, figure1):
        strategy = PMStrategy(figure1, index=LazyPMIndex(figure1))
        plan = explain(strategy, QUERY_GRID[-1])
        assert [feature.coverage for feature in plan.features] == [("full",)] * 2
        assert strategy.index.builds == 0

    def test_a_failed_build_publishes_nothing(self, figure1):
        index = LazyPMIndex(figure1)
        with faultinject.inject(FaultRule(point="index_build", times=1)):
            with pytest.raises(ExecutionError, match="index_build"):
                index.full_matrix(APV)
            assert index.size_bytes() == 0
            assert index.full_matrix(APV) is not None  # the next read builds
        assert index.builds == 1


class TestStaleness:
    def test_a_stale_tolerated_rung_builds_what_the_eager_index_held(self, figure1):
        eager = build_pm_index(figure1)
        strategy = PMStrategy(figure1, index=LazyPMIndex(figure1), allow_stale=True)
        late = figure1.add_vertex("author", "Late Arrival")
        figure1.add_edge(late, figure1.find_vertex("paper", "p1"), 5.0)
        index = strategy.index
        for types in figure1.schema.length2_metapaths():
            path = MetaPath(types)
            assert _same_bytes(index.full_matrix(path), eager.full_matrix(path)), path
        old = PMStrategy(figure1, index=eager, allow_stale=True)
        assert strategy.neighbor_row(APV, 0).toarray().tobytes() == (
            old.neighbor_row(APV, 0).toarray().tobytes()
        )
        with pytest.raises(ExecutionError, match="no stored row"):
            strategy.neighbor_support(APV, late.index)


class TestService:
    def test_nothing_is_built_at_set_up_and_stats_show_each_build(self, figure1):
        with QueryService.from_network(figure1, ServiceConfig(workers=1)) as service:
            assert service.handle.index_size_bytes() == 0
            service.execute(QUERY_GRID[0])
            index = service.stats()["engine"]["index"]
        assert index["row_coverage"] == 1.0
        coverage = index["coverage"]
        assert coverage["full_paths"] == coverage["lazy"]["builds"] >= 1
        assert coverage["full_paths"] < coverage["lazy"]["legal_paths"]
        assert coverage["lazy"]["build_seconds"] > 0

    def test_process_workers_answer_alike_from_the_eager_shared_index(self, figure1):
        """Workers map one eager PM index from the shared segment; a lazy
        one would be built privately, once per worker."""
        answers = {}
        for backend in ("thread", "process"):
            config = ServiceConfig(workers=1, backend=backend, cache_max_entries=0)
            with QueryService.from_network(figure1, config) as service:
                if backend == "process":
                    assert not isinstance(service.handle._served()[1], LazyPMIndex)
                    segment = service.backend._segment.directory
                    names = MmapArrayStore.open(segment).arrays()
                    legal = len(list(figure1.schema.length2_metapaths()))
                    full = {n.split(":")[2] for n in names if n.startswith("index:full")}
                    assert len(full) == legal
                answers[backend] = _wire(service.execute_many(QUERY_GRID))
        assert answers["process"] == answers["thread"]

    def test_a_build_over_the_memory_budget_demotes(self, figure1):
        policy = ResiliencePolicy(max_memory_mb=1e-6)
        index = LazyPMIndex(figure1, policy=policy)
        with pytest.raises(ResourceLimitError, match="author.paper.venue built"):
            index.full_matrix(APV)
        config = ServiceConfig(workers=1)
        with QueryService.from_network(figure1, config, resilience=policy) as service:
            result = service.execute(QUERY_GRID[0])
            reply = json.loads(json.dumps(result.to_dict()))
        with QueryService.from_network(figure1, config) as plain:
            undegraded = plain.execute(QUERY_GRID[0]).to_dict()
        assert reply["degraded"] is True
        assert "PM index with" in reply["degradation_reason"]
        assert "memory budget" in reply["degradation_reason"]
        assert reply["outliers"] == undegraded["outliers"]

    def test_the_budget_bounds_the_index_held_not_each_build(self, figure1):
        """A budget that admits every product alone but not their sum: the
        builds go on until the next would take the index over it."""
        paths = [MetaPath(types) for types in figure1.schema.length2_metapaths()]
        eager = build_pm_index(figure1)
        sizes = [csr_storage_bytes(eager.full_matrix(path)) for path in paths]
        budget = max(sizes) * 2
        assert sum(sizes) > budget
        policy = make_policy(max_memory_mb=budget / 1e6)
        index = LazyPMIndex(figure1, policy=policy)
        with pytest.raises(ResourceLimitError, match="memory budget"):
            for refused in paths:
                index.full_matrix(refused)
        assert 0 < index.builds < len(paths)
        assert index.size_bytes() <= budget
        ladder = FallbackStrategy(figure1, policy=policy, index=index)
        ladder.neighbor_matrix(refused, [0])
        assert ladder.active_rung != "pm"
        assert "memory budget" in ladder.degradation_reason

    def test_requests_out_of_time_leave_the_build_breaker_closed(self, figure1):
        policy = make_policy(timeout_seconds=1.0)
        config = ServiceConfig(workers=1)
        with QueryService.from_network(figure1, config, resilience=policy) as service:
            index = service.handle._served()[1]
            for _ in range(policy.breaker_threshold + 1):
                with deadline_scope(Deadline(0.0)):
                    with pytest.raises(DeadlineExceededError):
                        index.full_matrix(APV)
            assert policy.breaker("pm-index-build").state == CircuitBreaker.CLOSED
            result = service.execute(QUERY_GRID[0])
            ladder = service.handle._concrete_strategy()
            assert (ladder.active_rung, ladder.events) == ("pm", [])
        assert not result.degraded
