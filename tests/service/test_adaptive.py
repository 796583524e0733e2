"""Tests for :mod:`repro.service.adaptive` — observe → re-plan → hot-swap.

Four contracts, mirroring the module's two halves plus the swap machinery
they drive:

* :class:`TestWorkloadRecorder` — the bounded admission log's window
  semantics.
* :class:`TestReindexerControlLoop` — every skip reason is observable and
  the watermark advances so identical traffic never re-triggers a build.
* :class:`TestHotSwap` — the acceptance criterion on both backends:
  results stay byte-identical across a live index swap, the generation
  counters converge, and stats/healthz surface the new index metadata.
* :class:`TestChaos` — a worker killed around a swap never serves a torn
  index: the respawned worker attaches the *new* generation and answers
  match the pre-swap baseline exactly.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.engine.optimizer import WorkloadAnalyzer
from repro.exceptions import QuerySemanticError, ServiceError
from repro.service import (
    QueryService,
    Reindexer,
    ServiceConfig,
    WorkloadRecorder,
)
from repro.service import adaptive as adaptive_module

QUERY_A = (
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3;"
)
QUERY_B = (
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.author TOP 3;"
)
QUERY_C = "FIND OUTLIERS FROM venue JUDGED BY venue.paper.author TOP 2;"
#: Parses, but author-venue is no edge type: a 400 over HTTP.
INVALID_QUERY = "FIND OUTLIERS FROM author.venue JUDGED BY author.paper.venue TOP 3;"


def _adaptive_config(**overrides):
    defaults = dict(
        workers=2,
        adaptive=True,
        # A huge interval parks the background thread; tests drive cycles
        # deterministically through reindex_now().
        reindex_interval_seconds=3600.0,
        reindex_min_queries=2,
        subpath_cache_mb=8.0,
        cache_ttl_seconds=None,
        cache_max_entries=0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# ----------------------------------------------------------------------
# WorkloadRecorder
# ----------------------------------------------------------------------
class TestWorkloadRecorder:
    def test_window_is_bounded_but_total_is_not(self, monkeypatch):
        monkeypatch.setattr(adaptive_module, "ADMISSION_LOG_ENTRIES", 3)
        recorder = WorkloadRecorder()
        for position in range(7):
            recorder.record(f"q{position}")
        total, window = recorder.snapshot()
        assert total == 7
        assert window == ["q4", "q5", "q6"]
        stats = recorder.stats()
        assert stats["window_entries"] == 3
        assert stats["total_recorded"] == 7


# ----------------------------------------------------------------------
# Reindexer control loop (thread backend; cycles driven synchronously)
# ----------------------------------------------------------------------
class TestReindexerControlLoop:
    def test_adaptive_requires_spm_strategy(self, figure1):
        with pytest.raises(ServiceError):
            QueryService.from_network(
                figure1, _adaptive_config(), strategy="pm"
            )

    def test_non_adaptive_service_has_no_loop(self, figure1):
        config = ServiceConfig(workers=1, cache_max_entries=0)
        with QueryService.from_network(figure1, config, strategy="spm") as s:
            assert s.recorder is None and s.reindexer is None
            with pytest.raises(ServiceError):
                s.reindex_now()

    def test_skips_until_enough_new_queries(self, figure1):
        config = _adaptive_config(reindex_min_queries=5)
        with QueryService.from_network(figure1, config, strategy="spm") as s:
            s.execute(QUERY_A)
            assert s.reindex_now() is False
            assert s.reindexer.last_skip_reason == "too-few-new-queries"
            assert s.reindexer.skipped == 1

    def test_watermark_prevents_identical_retrigger(self, figure1):
        with QueryService.from_network(
            figure1, _adaptive_config(), strategy="spm"
        ) as s:
            for _ in range(3):
                s.execute(QUERY_A)
            assert s.reindex_now() is True
            # Same traffic, no new admissions: the watermark moved, so the
            # next cycle skips instead of rebuilding an identical index.
            assert s.reindex_now() is False
            assert s.reindexer.last_skip_reason == "too-few-new-queries"

    def test_unchanged_selection_skips(self, figure1):
        with QueryService.from_network(
            figure1, _adaptive_config(), strategy="spm"
        ) as s:
            for _ in range(3):
                s.execute(QUERY_A)
            assert s.reindex_now() is True
            for _ in range(3):
                s.execute(QUERY_A)  # same workload again
            assert s.reindex_now() is False
            assert s.reindexer.last_skip_reason == "selection-unchanged"
            assert s.reindexer.reindexes == 1

    def test_threshold_can_exclude_every_vertex(self, figure1):
        with QueryService.from_network(
            figure1, _adaptive_config(), strategy="spm"
        ) as s:
            s.reindexer.stop()
            # Relative frequencies never exceed 1, so a threshold above 1
            # leaves the ranking empty.
            loop = Reindexer(s, min_new_queries=1, spm_threshold=2.0)
            s.execute(QUERY_A)
            assert loop.run_once() is False
            assert loop.last_skip_reason == "no-hot-vertices"

    def test_budget_can_exclude_every_vertex(self, figure1):
        config = _adaptive_config(max_index_mb=1e-6)  # ~1 byte budget
        with QueryService.from_network(figure1, config, strategy="spm") as s:
            for _ in range(3):
                s.execute(QUERY_A)
            assert s.reindex_now() is False
            assert s.reindexer.last_skip_reason == "budget-excludes-all"

    def test_failed_cycle_counts_and_recovers(self, figure1):
        with QueryService.from_network(
            figure1, _adaptive_config(), strategy="spm"
        ) as s:
            for _ in range(3):
                s.execute(QUERY_A)
            original = s.apply_index_swap

            def explode(index):
                raise RuntimeError("injected swap failure")

            s.apply_index_swap = explode
            try:
                assert s.reindex_now() is False
            finally:
                s.apply_index_swap = original
            assert s.reindexer.failed == 1
            assert "injected swap failure" in s.reindexer.last_error
            # The loop keeps serving and the next cycle can still swap.
            for _ in range(3):
                s.execute(QUERY_B)
            s.execute(QUERY_A)

    def test_invalid_admitted_query_is_a_dead_log_entry(self, figure1):
        """``submit`` logs a query before the engine refuses it, so the
        window holds a query the client saw answered 400; the analyzer
        refuses it with the same typed error and the cycle skips it instead
        of failing every later cycle."""
        config = _adaptive_config(reindex_min_queries=1)
        with QueryService.from_network(figure1, config, strategy="spm") as s:
            with pytest.raises(QuerySemanticError):
                s.execute(INVALID_QUERY)
            for _ in range(3):
                s.execute(QUERY_A)
            assert s.reindex_now() is True
            assert s.reindexer.last_error is None
        with pytest.raises(QuerySemanticError):
            WorkloadAnalyzer(figure1).analyze(INVALID_QUERY)

    def test_validation_rejects_bad_knobs(self, figure1):
        with QueryService.from_network(
            figure1, _adaptive_config(), strategy="spm"
        ) as s:
            s.reindexer.stop()
            with pytest.raises(ServiceError):
                Reindexer(s, interval_seconds=0)
            with pytest.raises(ServiceError):
                Reindexer(s, min_new_queries=0)


# ----------------------------------------------------------------------
# Config validation for the new knobs
# ----------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"subpath_cache_mb": -1.0},
            {"reindex_interval_seconds": 0.0},
            {"reindex_min_queries": 0},
            {"queue_depth": -1},
            {"max_index_mb": 0.0},
            {"max_index_mb": -4.0},
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(ServiceError):
            ServiceConfig(workers=1, **overrides)


# ----------------------------------------------------------------------
# Hot swap: both backends, byte-identical answers
# ----------------------------------------------------------------------
class TestHotSwap:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_results_identical_across_swap(self, figure1, backend):
        config = _adaptive_config(backend=backend)
        with QueryService.from_network(figure1, config, strategy="spm") as s:
            before = {
                query: json.dumps(s.execute(query).to_dict(), sort_keys=True)
                for query in (QUERY_A, QUERY_B, QUERY_C)
            }
            for _ in range(2):
                s.execute(QUERY_A)
                s.execute(QUERY_B)
            assert s.reindex_now() is True
            after = {
                query: json.dumps(s.execute(query).to_dict(), sort_keys=True)
                for query in (QUERY_A, QUERY_B, QUERY_C)
            }
            assert before == after
            stats = s.stats()
            index = stats["engine"]["index"]
            assert index["generation"] == 1
            assert index["strategy"] == "spm"
            assert index["coverage"] is not None
            assert 0.0 < index["row_coverage"] <= 1.0
            if backend == "process":
                assert stats["backend"]["index_generation"] == 1
                assert all(
                    worker["generation"] == 1
                    for worker in stats["backend"]["per_worker"]
                )

    def test_stats_surface_adaptive_blocks(self, figure1):
        with QueryService.from_network(
            figure1, _adaptive_config(), strategy="spm"
        ) as s:
            for _ in range(3):
                s.execute(QUERY_A)
            assert s.reindex_now() is True
            stats = s.stats()
            adaptive = stats["adaptive"]
            assert adaptive["recorder"]["total_recorded"] >= 3
            assert adaptive["reindexer"]["reindexes"] == 1
            assert adaptive["reindexer"]["last_reindex_unix"] is not None
            assert adaptive["reindexer"]["last_selected"]
            engine = stats["engine"]
            assert "subpath_cache" in engine
            assert "subpath_cache_hit_rate" in engine
            assert engine["index"]["subpath_cache"] is not None

    def test_swap_rejected_for_non_spm_handle(self, figure1):
        from repro.engine.index import build_spm_index
        from repro.service import EngineHandle

        handle = EngineHandle(figure1, strategy="pm")
        index, indexed = build_spm_index(
            figure1, list(figure1.vertices("author"))[:2]
        )
        assert indexed
        with pytest.raises(ServiceError):
            handle.swap_index(index)

    def test_result_cache_survives_swap_consistently(self, figure1):
        """With memoization ON, entries cached before the swap are version-
        invalidated, and re-executed answers still match byte-for-byte."""
        config = _adaptive_config(cache_max_entries=64, cache_ttl_seconds=60.0)
        with QueryService.from_network(figure1, config, strategy="spm") as s:
            first = json.dumps(s.execute(QUERY_A).to_dict(), sort_keys=True)
            for _ in range(2):
                s.execute(QUERY_A)
            assert s.reindex_now() is True
            again = json.dumps(s.execute(QUERY_A).to_dict(), sort_keys=True)
            assert first == again


# ----------------------------------------------------------------------
# Chaos: crashes around the swap window
# ----------------------------------------------------------------------
class TestChaos:
    def test_killed_worker_respawns_onto_new_generation(self, figure1):
        config = _adaptive_config(backend="process")
        with QueryService.from_network(figure1, config, strategy="spm") as s:
            baseline = json.dumps(s.execute(QUERY_A).to_dict(), sort_keys=True)
            for _ in range(2):
                s.execute(QUERY_A)
                s.execute(QUERY_B)
            victim = s.stats()["backend"]["per_worker"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            # Swap while the pool is healing: the dead slot must come back
            # attached to the *new* segment generation, never the old one.
            assert s.reindex_now() is True
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                workers = s.stats()["backend"]["per_worker"]
                if all(worker["generation"] == 1 for worker in workers):
                    break
                time.sleep(0.05)
            workers = s.stats()["backend"]["per_worker"]
            assert all(worker["generation"] == 1 for worker in workers)
            # No torn index: every answer after the chaos matches baseline.
            for _ in range(4):
                answer = json.dumps(
                    s.execute(QUERY_A).to_dict(), sort_keys=True
                )
                assert answer == baseline
            assert s.stats()["backend"]["swap_errors"] == 0
