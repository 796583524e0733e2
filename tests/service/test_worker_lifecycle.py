"""Lifecycle of process-backend workers: one pipe each, end-of-file is death.

* :class:`TestOneWatcher` — a backend runs exactly one long-lived thread,
  and submitters racing on the pipes lose no task and answer every one.
* :class:`TestOrphanedWorkers` — workers exit when their server is
  SIGKILLed, because they read end-of-file on their pipe.
* :class:`TestAttachFailures` — a respawn or a hot-swap that cannot attach
  its generation is reported: in the slot's ``stats()`` row, and by
  ``refresh_engine`` raising a :class:`ServiceError` that names it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import pytest

from repro.core.measures import NetOutMeasure
from repro.exceptions import ServiceError
from repro.service import EngineHandle
from repro.service.backends import ProcessBackend

QUERY = (
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3;"
)


def retired_backend(handle: EngineHandle) -> ProcessBackend:
    """A process backend over ``handle`` whose one worker is SIGKILLed with
    no restart budget left: no live worker remains."""
    backend = ProcessBackend(handle, workers=1, max_restarts=0)
    os.kill(backend.stats()["per_worker"][0]["pid"], signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while backend.live_workers():
        assert time.monotonic() < deadline, "worker never retired"
        time.sleep(0.02)
    return backend


def _rebuild_unless_marked(marker: str) -> "MarkerRefusingMeasure":
    if os.path.exists(marker):
        raise RuntimeError(f"refusing to rebuild: {marker} exists")
    return MarkerRefusingMeasure(marker)


class MarkerRefusingMeasure(NetOutMeasure):
    """NetOut that a worker rebuilds until ``marker`` exists, then cannot.

    Module-level, so spawn can import it; the refusal happens while a
    worker unpickles the engine spec, i.e. during an attach.
    """

    name = "netout-marker"

    def __init__(self, marker: str) -> None:
        super().__init__()
        self.marker = marker

    def __reduce__(self):
        return (_rebuild_unless_marked, (self.marker,))


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie counts as dead."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


class TestOneWatcher:
    def test_backend_runs_one_thread(self, figure1):
        before = set(threading.enumerate())
        backend = ProcessBackend(EngineHandle(figure1), workers=2)
        try:
            started = set(threading.enumerate()) - before
            assert [thread.name for thread in started] == ["repro-serve-watcher"]
            assert len(backend.submit(QUERY).result(timeout=30.0)) > 0
        finally:
            backend.close()

    def test_concurrent_submitters_lose_no_task(self, figure1):
        """More submitting threads than workers, more workers than cores,
        and a short switch interval: every future resolves with the
        in-process answer, and every task is accounted for exactly once."""
        queries = [
            f"FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP {k};"
            for k in range(1, 6)
        ]
        handle = EngineHandle(figure1)
        expected = {
            query: json.dumps(handle.execute(query).to_dict(), sort_keys=True)
            for query in queries
        }
        burst = [queries[i % len(queries)] for i in range(200)]
        backend = ProcessBackend(handle, workers=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = list(pool.map(backend.submit, burst))
            _, not_done = wait(futures, timeout=60.0)
            assert not not_done
            for query, future in zip(burst, futures):
                answer = future.result(timeout=0).to_dict()
                assert json.dumps(answer, sort_keys=True) == expected[query]
            rows = backend.stats()["per_worker"]
            assert sum(row["completed"] for row in rows) == len(burst)
            assert all(row["outstanding"] == 0 for row in rows)
        finally:
            sys.setswitchinterval(interval)
            backend.close()


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
class TestOrphanedWorkers:
    def test_workers_exit_when_their_server_is_killed(self, figure1, tmp_path):
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
                "--workers", "2",
                "--backend", "process",
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        pids: list[int] = []
        segment = None
        try:
            banner = server.stdout.readline()
            host, port = re.search(r"http://([\d.]+):(\d+)", banner).groups()
            connection = http.client.HTTPConnection(host, int(port), timeout=30.0)
            try:
                connection.request("GET", "/stats")
                backend = json.loads(connection.getresponse().read())["backend"]
            finally:
                connection.close()
            segment = backend["segment"]
            pids = [row["pid"] for row in backend["per_worker"]]
            assert len(pids) == 2 and all(pids)
            server.kill()
            server.wait(timeout=10.0)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in pids if _running(pid)]
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10.0)
            server.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            if segment is not None:
                shutil.rmtree(segment, ignore_errors=True)
        assert survivors == []


class TestAttachFailures:
    def test_failed_respawn_is_reported_in_its_row(self, figure1, tmp_path):
        """A SIGKILLed worker whose replacement cannot attach: the slot
        retires once its budget is spent, and its row says why."""
        marker = tmp_path / "marker"
        handle = EngineHandle(figure1, measure=MarkerRefusingMeasure(str(marker)))
        backend = ProcessBackend(handle, workers=2, max_restarts=1)
        try:
            marker.touch()
            os.kill(backend.stats()["per_worker"][0]["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while backend.stats()["per_worker"][0]["alive"]:
                assert time.monotonic() < deadline, "slot never retired"
                time.sleep(0.05)
            stats = backend.stats()
            row = stats["per_worker"][0]
            assert row["restarts"] == 2
            assert "generation 0" in row["last_error"]
            assert "refusing to rebuild" in row["last_error"]
            assert stats["per_worker"][1]["last_error"] is None
            assert stats["live_workers"] == 1
            assert stats["swap_errors"] == 0  # generation 0 is no swap
            assert len(backend.submit(QUERY).result(timeout=30.0)) > 0
        finally:
            backend.close()

    def test_failed_swap_raises_and_retires_the_old_segment(self, figure1, tmp_path):
        marker = tmp_path / "marker"
        handle = EngineHandle(figure1, measure=MarkerRefusingMeasure(str(marker)))
        backend = ProcessBackend(handle, workers=1, max_restarts=0)
        try:
            old_segment = Path(backend.stats()["segment"])
            marker.touch()
            with pytest.raises(ServiceError, match="generation 1") as excinfo:
                backend.refresh_engine(timeout_seconds=30.0)
            assert "refusing to rebuild" in str(excinfo.value)
            new_segment = Path(backend.stats()["segment"])
            assert old_segment.is_dir()  # retired, not yanked
            assert backend.stats()["swap_errors"] == 1
        finally:
            backend.close()
        assert not old_segment.exists()
        assert not new_segment.exists()
