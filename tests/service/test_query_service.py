"""Tests for :mod:`repro.service.service` — futures, caching, overload, close."""

import threading

import pytest

from repro import faultinject
from repro.core.results import OutlierResult
from repro.engine.index import build_spm_index
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import (
    DeadlineExceededError,
    DegradedResultWarning,
    QuerySyntaxError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.faultinject import FaultRule
from repro.query.parser import parse_query
from repro.service import EngineHandle, QueryService, ServiceConfig
from repro.service.keys import canonical_query_key

QUERY = (
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3;"
)
OTHER_QUERY = (
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 2;"
)


class GatedHandle:
    """Delegates to a real handle, but blocks every execute on a gate —
    makes 'a request is mid-flight' a deterministic test state."""

    def __init__(self, inner: EngineHandle) -> None:
        self._inner = inner
        self.gate = threading.Event()
        self.started = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute(self, query, *, deadline=None):
        self.started.set()
        assert self.gate.wait(10.0), "test gate never opened"
        return self._inner.execute(query, deadline=deadline)


@pytest.fixture()
def handle(figure1):
    return EngineHandle(figure1, strategy="baseline", row_cache_rows=64)


class TestWarmUp:
    def test_warm_reaches_ladder_beneath_row_cache(self, figure1):
        """Regression: with a resilience policy the fallback ladder sits
        *under* the row-cache wrapper; warm-up must still force its rung
        build, or the first concurrent requests race on it."""
        from repro.engine.resilience import ResiliencePolicy

        warmed = EngineHandle(
            figure1,
            strategy="pm",
            resilience=ResiliencePolicy(timeout_seconds=30.0),
            row_cache_rows=64,
        )
        assert warmed.fingerprint.startswith("cached-resilient/")
        # A PM rung holds real matrices; 0 would mean the build is still
        # pending its first query.
        assert warmed.index_size_bytes() > 0


class TestLadderBehindTheHandle:
    def test_degraded_flag_survives_the_row_cache(self, figure1):
        """Regression: behind the row cache a demoted engine answered
        ``degraded=False`` although the baseline rung served it."""
        with faultinject.inject(FaultRule(point="index_build", times=None)):
            handle = EngineHandle(
                figure1,
                strategy="pm",
                resilience=ResiliencePolicy(retry_attempts=1),
                row_cache_rows=64,
            )
        with pytest.warns(DegradedResultWarning):
            result = handle.execute(QUERY)
        assert result.degraded
        assert result.degradation_reason.startswith("pm: build failed")

    def test_hot_swap_keeps_the_ladder(self, figure1):
        """Regression: a swap replaced the ladder with a plain SPM engine,
        so a later mutation failed every query instead of demoting."""
        handle = EngineHandle(
            figure1, strategy="spm", resilience=ResiliencePolicy(retry_attempts=1)
        )
        fingerprint = handle.fingerprint
        zoe = figure1.find_vertex("author", "Zoe")
        handle.swap_index(build_spm_index(figure1, [zoe])[0])
        assert handle.fingerprint == fingerprint == "cached-resilient/netout/score"
        figure1.add_vertex("author", "Late Arrival")
        with pytest.warns(DegradedResultWarning):
            result = handle.execute(QUERY)
        baseline = EngineHandle(figure1, strategy="baseline").execute(QUERY)
        assert result.degraded and result.degradation_reason.startswith("spm:")
        assert [(e.name, e.score) for e in result] == [
            (e.name, e.score) for e in baseline
        ]

    def test_hot_swap_starts_a_fresh_ladder(self, figure1):
        """A PM ladder demoted to SPM by its memory budget swaps onto a
        fresh ladder at the new index: the degraded flag clears."""
        handle = EngineHandle(
            figure1, strategy="pm", resilience=ResiliencePolicy(max_memory_mb=1e-6)
        )
        with pytest.warns(DegradedResultWarning):
            assert handle.execute(QUERY).degraded
        zoe = figure1.find_vertex("author", "Zoe")
        handle.swap_index(build_spm_index(figure1, [zoe])[0])
        assert handle.fingerprint == "cached-resilient/netout/score"
        assert not handle.execute(OTHER_QUERY).degraded


class TestSubmitAndExecute:
    def test_submit_returns_future_with_result(self, handle):
        with QueryService(handle, ServiceConfig(workers=2)) as service:
            future = service.submit(QUERY)
            result = service.result(future, timeout=10.0)
        assert isinstance(result, OutlierResult)
        assert len(result) == 3

    def test_execute_matches_direct_engine(self, handle, figure1):
        direct = handle.execute(QUERY)
        with QueryService(handle, ServiceConfig(workers=2)) as service:
            served = service.execute(QUERY, timeout=10.0)
        assert served.names() == direct.names()
        assert served.scores == direct.scores

    def test_malformed_query_raises_before_admission(self, handle):
        with QueryService(handle, ServiceConfig(workers=1)) as service:
            with pytest.raises(QuerySyntaxError):
                service.submit("FIND gibberish")
            assert service.admission.snapshot()["admitted"] == 0

    def test_from_network_convenience(self, figure1):
        with QueryService.from_network(
            figure1, ServiceConfig(workers=1), strategy="baseline"
        ) as service:
            assert len(service.execute(QUERY, timeout=10.0)) == 3


class TestResultCacheIntegration:
    def test_second_submit_is_a_resolved_future(self, handle):
        with QueryService(handle, ServiceConfig(workers=2)) as service:
            first = service.execute(QUERY, timeout=10.0)
            future = service.submit(QUERY)
            assert future.done()  # cache hit: no execution round-trip
            assert future.result() is first
            assert service.cache.hits == 1

    def test_a_hit_cannot_be_edited_into_the_next_clients_answer(self, handle):
        """Regression: a hit hands out the cached object itself.  With dict
        score maps ``first.scores[v] = -1.0`` became every later client's
        HTTP answer until the TTL expired; the columns the wire is encoded
        from, and the mapping views over them, are read-only now."""
        import json

        with QueryService(handle, ServiceConfig(workers=2)) as service:
            first = service.execute(QUERY, timeout=10.0)
            original = json.dumps(first.to_dict())
            vertex = first.outliers[0].vertex
            with pytest.raises(TypeError):
                first.scores[vertex] = -1.0
            with pytest.raises(ValueError, match="read-only"):
                first.omega[:] = -1.0
            second = service.execute(QUERY, timeout=10.0)
            assert second is first and service.cache.hits == 1
            assert json.dumps(second.to_dict()) == original
            assert -1.0 not in second.scores.values()

    def test_textual_variant_hits_the_same_entry(self, handle):
        sloppy = (
            "find  outliers from author{\"Zoe\"} . paper . author\n"
            "judged by author.paper.venue top 3 ;"
        )
        with QueryService(handle, ServiceConfig(workers=2)) as service:
            service.execute(QUERY, timeout=10.0)
            assert service.submit(sloppy).done()

    def test_network_mutation_invalidates(self, handle, figure1):
        with QueryService(handle, ServiceConfig(workers=2)) as service:
            service.execute(QUERY, timeout=10.0)
            figure1.add_vertex("venue", "NEWVENUE")  # version bump
            future = service.submit(QUERY)
            assert not future.done()
            service.result(future, timeout=10.0)
            assert service.cache.invalidations == 1

    def test_invalidate_cache(self, handle):
        with QueryService(handle, ServiceConfig(workers=2)) as service:
            service.execute(QUERY, timeout=10.0)
            assert service.invalidate_cache() == 1
            assert not service.submit(QUERY).done()

    def test_disabled_cache_reexecutes(self, handle):
        config = ServiceConfig(workers=2, cache_max_entries=0)
        with QueryService(handle, config) as service:
            service.execute(QUERY, timeout=10.0)
            assert not service.submit(QUERY).done()


class TestCoalescing:
    def test_identical_inflight_queries_share_a_future(self, figure1):
        gated = GatedHandle(EngineHandle(figure1, strategy="baseline"))
        service = QueryService(gated, ServiceConfig(workers=1))
        try:
            first = service.submit(QUERY)
            assert gated.started.wait(10.0)
            second = service.submit(QUERY)
            assert second is first
            assert service.stats()["service"]["coalesced"] == 1
            # One admission slot for the pair, not two.
            assert service.admission.snapshot()["admitted"] == 1
            gated.gate.set()
            assert len(service.result(first, timeout=10.0)) == 3
        finally:
            gated.gate.set()
            service.close()


class TestParseOnce:
    """The thread backend executes the AST the service parsed: one parse
    per request, counted where the serving benchmark's tracer counts it."""

    SPELLED = QUERY.replace("FIND OUTLIERS FROM", "find  outliers\tfrom")

    @pytest.fixture()
    def parses(self, monkeypatch):
        import repro.engine.executor as executor_module
        import repro.service.keys as keys_module

        calls = []
        real = keys_module.parse_query

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(keys_module, "parse_query", counting)
        monkeypatch.setattr(executor_module, "parse_query", counting)
        return calls

    def test_a_thread_submit_parses_once(self, figure1, parses):
        config = ServiceConfig(workers=1, cache_max_entries=0)
        with QueryService.from_network(figure1, config, strategy="pm") as service:
            result = service.execute(self.SPELLED, timeout=30.0)
        assert parses == [self.SPELLED]
        canonical = canonical_query_key(parse_query(self.SPELLED))
        expected = EngineHandle(figure1, strategy="pm").execute(canonical)
        assert result.to_dict() == expected.to_dict()

    def test_coalesced_submissions_share_the_first_ast(self, figure1, parses):
        executed = []

        class Recording(GatedHandle):
            def execute(self, query, *, deadline=None):
                executed.append(query)
                return super().execute(query, deadline=deadline)

        gated = Recording(EngineHandle(figure1, strategy="baseline"))
        service = QueryService(gated, ServiceConfig(workers=1))
        try:
            first = service.submit(QUERY)
            assert gated.started.wait(10.0)
            assert service.submit(self.SPELLED) is first
            gated.gate.set()
            assert len(service.result(first, timeout=10.0)) == 3
        finally:
            gated.gate.set()
            service.close()
        # Each submission parses its own text to find its key; the engine
        # runs once, on the first submitter's AST.
        assert parses == [QUERY, self.SPELLED]
        assert executed == [parse_query(QUERY)]


class TestOverload:
    def test_full_queue_sheds_typed(self, figure1):
        gated = GatedHandle(EngineHandle(figure1, strategy="baseline"))
        service = QueryService(gated, ServiceConfig(workers=1, queue_depth=0))
        try:
            first = service.submit(QUERY)
            assert gated.started.wait(10.0)
            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.submit(OTHER_QUERY)
            assert excinfo.value.retry_after_seconds > 0
            assert service.admission.snapshot()["shed"] == 1
            # The shed did not corrupt the in-flight request.
            gated.gate.set()
            assert len(service.result(first, timeout=10.0)) == 3
            # With the slot free again, the shed query now runs fine.
            assert len(service.execute(OTHER_QUERY, timeout=10.0)) == 2
        finally:
            gated.gate.set()
            service.close()


class TestLifecycle:
    def test_submit_after_close_raises(self, handle):
        service = QueryService(handle, ServiceConfig(workers=1))
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(QUERY)

    def test_close_is_idempotent(self, handle):
        service = QueryService(handle, ServiceConfig(workers=1))
        service.close()
        service.close()
        assert service.closed

    def test_drain_close_completes_inflight_work(self, figure1):
        gated = GatedHandle(EngineHandle(figure1, strategy="baseline"))
        service = QueryService(gated, ServiceConfig(workers=1))
        future = service.submit(QUERY)
        assert gated.started.wait(10.0)
        closer = threading.Thread(target=service.close)
        closer.start()
        gated.gate.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert len(future.result(timeout=10.0)) == 3

    def test_nondrain_close_fails_queued_requests(self, figure1):
        gated = GatedHandle(EngineHandle(figure1, strategy="baseline"))
        service = QueryService(gated, ServiceConfig(workers=1, queue_depth=8))
        try:
            service.submit(QUERY)
            assert gated.started.wait(10.0)
            queued = service.submit(OTHER_QUERY)  # waits behind the gate
            service.close(drain=False)
            with pytest.raises(ServiceClosedError):
                queued.result(timeout=10.0)
        finally:
            gated.gate.set()

    def test_per_request_deadline_surfaces(self, handle):
        config = ServiceConfig(workers=1, timeout_seconds=1e-9)
        with QueryService(handle, config) as service:
            future = service.submit(QUERY)
            with pytest.raises(DeadlineExceededError):
                service.result(future, timeout=10.0)
            assert service.stats()["service"]["failed"] == 1
            # A failed request must release its admission slot.
            assert service.admission.in_flight == 0


class TestStats:
    def test_snapshot_shape_and_counts(self, handle):
        with QueryService(handle, ServiceConfig(workers=2)) as service:
            service.execute(QUERY, timeout=10.0)
            service.execute(QUERY, timeout=10.0)  # cached
            stats = service.stats()
        assert set(stats) == {
            "service",
            "admission",
            "cache",
            "engine",
            "backend",
        }
        assert stats["service"]["submitted"] == 2
        assert stats["service"]["completed"] == 1
        assert stats["service"]["failed"] == 0
        assert stats["cache"]["hits"] == 1
        assert stats["admission"]["admitted"] == 1
        assert stats["engine"]["fingerprint"].startswith("cached-baseline/")
        assert stats["engine"]["index_size_bytes"] >= 0
        assert stats["engine"]["network_version"] == handle.version

    def test_stats_are_json_safe(self, handle):
        import json

        with QueryService(handle, ServiceConfig(workers=1)) as service:
            service.execute(QUERY, timeout=10.0)
            json.dumps(service.stats())


class TestMmapTier:
    def test_from_network_builds_the_pm_index_out_of_core(self, ego_corpus, tmp_path):
        """``storage="mmap"`` is a tier of the library, not of the CLI: the
        served PM index lives in file-backed views (built in row blocks
        under ``storage_dir``) and scores exactly as the in-RAM build does."""
        from repro.engine.index import DEFAULT_BUILD_BLOCK_ROWS, _effective_block_rows
        from repro.hin.storage import is_store_backed

        query = (
            'FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author '
            "JUDGED BY author.paper.venue, author.paper.term TOP 10;"
        )
        network = ego_corpus.network
        with QueryService.from_network(network, ServiceConfig(workers=1)) as ram:
            expected = ram.execute(query).to_dict()
            ram_index = ram.handle._concrete_strategy().index
            assert not any(
                is_store_backed(ram_index.full_matrix(path)) for path in ram_index.paths
            )
        # A 1 MB build budget splits the denser products into several blocks.
        config = ServiceConfig(
            workers=1,
            storage="mmap",
            storage_dir=str(tmp_path),
            max_build_memory_mb=1.0,
        )
        term = (network.adjacency("paper", "term"), network.adjacency("term", "paper"))
        rows_per_block = _effective_block_rows(*term, DEFAULT_BUILD_BLOCK_ROWS, 1.0)
        assert rows_per_block < term[0].shape[0]
        mmap_network = network.copy_with_storage("mmap")
        with QueryService.from_network(mmap_network, config) as service:
            index = service.handle._concrete_strategy().index
            assert index.paths
            assert all(
                is_store_backed(index.full_matrix(path)) for path in index.paths
            )
            assert (tmp_path / "pm-index").is_dir()
            assert service.execute(query).to_dict() == expected

    def test_strategy_name_case_does_not_change_the_tier(self, figure1, tmp_path):
        """``"PM"`` is ``"pm"``: the index is built out-of-core, not in RAM
        under the same fingerprint."""
        from repro.hin.storage import is_store_backed

        config = ServiceConfig(workers=1, storage="mmap", storage_dir=str(tmp_path))
        with QueryService.from_network(figure1, config, strategy="PM") as service:
            index = service.handle._concrete_strategy().index
            assert index.paths
            assert all(
                is_store_backed(index.full_matrix(path)) for path in index.paths
            )
            assert service.handle.fingerprint == "cached-pm/netout/score"
