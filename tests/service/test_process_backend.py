"""Concurrency regression suite for the process execution backend.

The process backend must be *indistinguishable* from the thread backend to
every caller — byte-identical results, the same typed errors, the same
admission accounting — while surviving the failure modes only processes
have: worker crashes, orphaned segment directories, kill signals.  Each
class below pins one of those contracts:

* :class:`TestByteEquality` — the acceptance criterion: ``to_dict()``
  payloads byte-identical across backends over a strategy x query grid.
* :class:`TestCrashReplacement` — kill a worker mid-burst; every admitted
  query still answers, the slot respawns, and the pool heals.
* :class:`TestSegmentCleanup` — no segment directory outlives its
  service, on the happy path or on construction/start-up failures.
* :class:`TestCloseDrain` — ``close(drain=True)`` resolves every in-flight
  future and releases every admission slot before teardown.
* :class:`TestServeSignals` — ``repro serve`` under SIGTERM takes the same
  drain-then-teardown path (both backends) and exits 0.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import wait
from pathlib import Path

import pytest

from repro.core.measures import NetOutMeasure
from repro.exceptions import ServiceClosedError, ServiceError
from repro.service import QueryService, ServiceConfig, auto_worker_count
from repro.service.backends import segment_parent
from repro.service.simload import GilBoundNetOutMeasure

#: A small grid of executable figure-1 queries with distinct canonical forms.
QUERY_GRID = [
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3;",
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 2;",
    "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 5;",
    "FIND OUTLIERS FROM venue JUDGED BY venue.paper.author TOP 2;",
    "FIND OUTLIERS FROM author JUDGED BY author.paper.term TOP 4;",
    # Multi-feature: the result pipe carries per-feature columns too.
    "FIND OUTLIERS FROM author "
    "JUDGED BY author.paper.venue : 2.0, author.paper.author TOP 3;",
]
#: Threads run the parsed AST, workers re-parse the canonical text: a weight
#: whose shortest ``repr`` is exponent form must survive both.
TINY_WEIGHT_QUERY = (
    "FIND OUTLIERS FROM author "
    "JUDGED BY author.paper.venue : 0.00000015, author.paper.author TOP 3;"
)


def _service(network, backend, *, workers=2, measure=None, **config_kwargs):
    config = ServiceConfig(
        workers=workers,
        backend=backend,
        cache_max_entries=0,  # exercise execution, not memoization
        **config_kwargs,
    )
    kwargs = {"strategy": "pm"}
    if measure is not None:
        kwargs["measure"] = measure
    return QueryService.from_network(network, config, **kwargs)


def _wire(results):
    """Canonical byte form of a result list (the frontend's wire format)."""
    return json.dumps(
        [result.to_dict() for result in results], sort_keys=True
    ).encode("utf-8")


# ----------------------------------------------------------------------
# Byte equality across backends
# ----------------------------------------------------------------------
class TestByteEquality:
    @pytest.mark.parametrize("strategy", ["baseline", "pm", "spm"])
    def test_results_identical_across_backends(self, figure1, strategy):
        """Acceptance: the backend switch never changes a single byte of
        any result, for every strategy whose index crosses the segment."""
        payloads = {}
        for backend in ("thread", "process"):
            config = ServiceConfig(
                workers=2, backend=backend, cache_max_entries=0
            )
            with QueryService.from_network(
                figure1, config, strategy=strategy
            ) as service:
                results = service.execute_many(
                    QUERY_GRID + [TINY_WEIGHT_QUERY], timeout=60.0
                )
            payloads[backend] = _wire(results)
        assert payloads["thread"] == payloads["process"]

    def test_pipe_payload_round_trips_without_a_worker(self):
        """What a worker sends is the pickled result: columns, ranked
        records and flags survive; ``stats`` stays behind; the columns come
        back read-only."""
        import pickle

        import numpy as np

        from repro.core.results import OutlierResult
        from repro.engine.stats import ExecutionStats

        sent = OutlierResult.from_columns(
            "author",
            [3, 5, 8],
            [2.0, 0.5, 0.5],
            {3: "Cy", 5: "Bob", 8: "Ann"},
            top_k=2,
            reference_count=7,
            stats=ExecutionStats(),
            feature_omega={"author.paper.venue": [1.0, 0.25, 0.75]},
            degraded=True,
            degradation_reason="pm: build failed",
        )
        received = pickle.loads(pickle.dumps(sent))
        assert _wire([received]) == _wire([sent])
        assert received.degraded is True
        assert received.degradation_reason == "pm: build failed"
        assert received.outliers == sent.outliers
        assert received.names() == ["Ann", "Bob"]
        assert received.stats is None
        columns = (received.indices, received.omega, *received.feature_omega.values())
        for column in columns:
            assert isinstance(column, np.ndarray) and not column.flags.writeable

    def test_typed_errors_cross_the_process_boundary(self, figure1):
        """A worker-side failure comes back as the same exception type the
        thread backend raises, not a generic pickle of a traceback."""
        from repro.exceptions import VertexNotFoundError

        ghost = QUERY_GRID[0].replace("Zoe", "Ghost")
        with _service(figure1, "process") as service:
            with pytest.raises(VertexNotFoundError):
                service.execute(ghost, timeout=30.0)

    def test_deadline_error_keeps_payload_across_boundary(self, figure1):
        from repro.exceptions import DeadlineExceededError

        with _service(
            figure1, "process", timeout_seconds=1e-9
        ) as service:
            with pytest.raises(DeadlineExceededError) as excinfo:
                service.execute(QUERY_GRID[0], timeout=30.0)
        assert excinfo.value.budget_seconds == 1e-9
        assert excinfo.value.elapsed_seconds > 0


# ----------------------------------------------------------------------
# Crash replacement
# ----------------------------------------------------------------------
class TestCrashReplacement:
    def test_killed_worker_is_replaced_and_burst_completes(self, figure1):
        """SIGKILL one worker mid-burst: every admitted query still gets
        its (correct) answer, and the pool heals back to full strength."""
        measure = GilBoundNetOutMeasure(compute_seconds=0.15)
        burst = [QUERY_GRID[i % len(QUERY_GRID)] for i in range(10)]
        with _service(figure1, "thread", measure=measure) as reference_svc:
            reference = _wire(reference_svc.execute_many(burst, timeout=60.0))

        service = _service(
            figure1, "process", measure=measure, queue_depth=len(burst)
        )
        try:
            futures = [service.submit(query) for query in burst]
            victims = [
                worker["pid"]
                for worker in service.stats()["backend"]["per_worker"]
                if worker["alive"]
            ]
            os.kill(victims[0], signal.SIGKILL)

            done, not_done = wait(futures, timeout=60.0)
            assert not not_done, "crash left hanging futures"
            results = [future.result(timeout=0) for future in futures]
            assert _wire(results) == reference

            stats = service.stats()["backend"]
            assert sum(w["restarts"] for w in stats["per_worker"]) >= 1
            assert stats["live_workers"] == 2  # the slot respawned
            assert service.admission.in_flight == 0
        finally:
            service.close()

    def test_service_answers_after_the_crash(self, figure1):
        """The replacement worker is a full citizen: fresh queries after a
        kill execute on the healed pool."""
        service = _service(figure1, "process")
        try:
            service.execute(QUERY_GRID[0], timeout=30.0)
            pid = service.stats()["backend"]["per_worker"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while service.backend.live_workers() < 2:
                assert time.monotonic() < deadline, "worker never respawned"
                time.sleep(0.02)
            assert len(service.execute(QUERY_GRID[2], timeout=30.0)) > 0
        finally:
            service.close()


# ----------------------------------------------------------------------
# Segment cleanup
# ----------------------------------------------------------------------
def _own_segments():
    """This process's segment directories under the RAM tier's parent."""
    return set(Path(segment_parent()).glob(f"repro-serve-{os.getpid()}-*"))


def _poison_rebuild():
    raise RuntimeError("poisoned measure: worker-side rebuild must fail")


class PoisonedRebuildMeasure(NetOutMeasure):
    """Pickles fine in the parent; exploding only when a worker rebuilds it.

    This models the realistic start-up failure class — the spec crosses the
    process boundary but cannot be reconstituted on the far side — *after*
    the shared segment has already been exported, which is exactly the path
    that must not leak it.
    """

    name = "netout-poisoned"

    def __reduce__(self):
        return (_poison_rebuild, ())


class TestSegmentCleanup:
    def test_normal_close_unlinks_the_segment(self, figure1):
        service = _service(figure1, "process")
        segment = Path(service.stats()["backend"]["segment"])
        assert segment.parent == Path(segment_parent())
        assert (segment / "manifest.json").is_file()
        service.execute(QUERY_GRID[0], timeout=30.0)
        service.close()
        assert not segment.exists()

    def test_nondrain_close_unlinks_the_segment(self, figure1):
        service = _service(figure1, "process")
        segment = Path(service.stats()["backend"]["segment"])
        assert segment.parent == Path(segment_parent())
        for query in QUERY_GRID:
            service.submit(query)
        service.close(drain=False)
        assert not segment.exists()

    def test_unpicklable_spec_fails_before_any_segment_exists(self, figure1):
        """An engine spec that cannot cross the boundary is rejected with a
        typed error at construction — fail-fast, nothing exported."""

        class Unpicklable(NetOutMeasure):  # local class: not picklable
            name = "netout-local"

        before = _own_segments()
        with pytest.raises(ServiceError, match="pickle"):
            _service(figure1, "process", measure=Unpicklable())
        assert _own_segments() == before

    def test_worker_startup_failure_unlinks_the_segment(self, figure1):
        """Start-up failure *after* export (workers die rebuilding the
        engine) must tear the segment down on the error path."""
        before = _own_segments()
        with pytest.raises(ServiceError, match="failed to start|died"):
            _service(figure1, "process", measure=PoisonedRebuildMeasure())
        assert _own_segments() == before


# ----------------------------------------------------------------------
# Close / drain semantics
# ----------------------------------------------------------------------
class TestCloseDrain:
    def test_drain_close_resolves_every_inflight_future(self, figure1):
        measure = GilBoundNetOutMeasure(compute_seconds=0.1)
        burst = [QUERY_GRID[i % len(QUERY_GRID)] for i in range(8)]
        service = _service(
            figure1, "process", measure=measure, queue_depth=len(burst)
        )
        futures = [service.submit(query) for query in burst]
        service.close()  # drain=True: blocks until the burst resolves
        assert all(future.done() for future in futures)
        for future in futures:
            assert len(future.result(timeout=0)) > 0
        assert service.admission.in_flight == 0

    def test_nondrain_close_fails_fast_and_releases_admission(self, figure1):
        measure = GilBoundNetOutMeasure(compute_seconds=0.1)
        burst = [QUERY_GRID[i % len(QUERY_GRID)] for i in range(8)]
        service = _service(
            figure1, "process", measure=measure, queue_depth=len(burst)
        )
        futures = [service.submit(query) for query in burst]
        service.close(drain=False)
        done, not_done = wait(futures, timeout=30.0)
        assert not not_done
        for future in futures:
            # Abandoned requests surface the typed shutdown error; anything
            # already executed may legitimately carry its result.
            if not future.cancelled() and future.exception(timeout=0) is not None:
                assert isinstance(future.exception(timeout=0), ServiceClosedError)
        assert service.admission.in_flight == 0

    def test_submit_after_close_is_typed(self, figure1):
        service = _service(figure1, "process")
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(QUERY_GRID[0])


# ----------------------------------------------------------------------
# Auto-sizing and stats surface
# ----------------------------------------------------------------------
class TestAutoSizeAndStats:
    def test_workers_zero_resolves_to_physical_core_estimate(self):
        config = ServiceConfig(workers=0)
        assert config.workers == auto_worker_count()
        assert config.workers >= 1

    def test_resolved_count_drives_the_pool(self, figure1):
        config = ServiceConfig(workers=0, backend="thread")
        with QueryService.from_network(
            figure1, config, strategy="baseline"
        ) as service:
            assert service.backend.live_workers() == config.workers

    def test_process_stats_expose_per_worker_rows(self, figure1):
        with _service(figure1, "process") as service:
            service.execute(QUERY_GRID[0], timeout=30.0)
            stats = service.stats()["backend"]
            assert stats["backend"] == "process"
            assert stats["segment_bytes"] > 0
            assert len(stats["per_worker"]) == 2
            for row in stats["per_worker"]:
                assert row["alive"] and row["ready"]
                assert isinstance(row["pid"], int)
            assert sum(w["completed"] for w in stats["per_worker"]) == 1
            json.dumps(service.stats())  # whole snapshot stays JSON-safe


# ----------------------------------------------------------------------
# SIGTERM takes the drain path in `repro serve`
# ----------------------------------------------------------------------
class TestServeSignals:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_sigterm_drains_and_exits_zero(self, figure1, tmp_path, backend):
        from repro.hin.io import save_json

        corpus = tmp_path / "figure1.json"
        save_json(figure1, str(corpus))
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--network", str(corpus),
                "--port", "0",
                "--workers", "1",
                "--backend", backend,
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = server.stdout.readline()
            assert f"{backend} backend" in banner
            server.send_signal(signal.SIGTERM)
            remaining = server.communicate(timeout=60.0)[0]
        finally:
            if server.poll() is None:  # pragma: no cover - hung server
                server.kill()
                server.wait(timeout=10.0)
        assert server.returncode == 0
        assert "shut down cleanly" in remaining
