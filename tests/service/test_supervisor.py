"""Tests for :mod:`repro.service.supervisor`.

The supervisor is command-agnostic, so these tests run it over tiny fake
replicas (``python -c`` one-liners printing the serving banner) instead of
full ``repro serve`` processes — restart backoff, crash-loop quarantine,
and callback wiring are process-lifecycle concerns, not query concerns.
"""

import random
import sys
import threading
import time

import pytest

from repro.exceptions import ServiceError
from repro.service import ReplicaSupervisor, SupervisorConfig
from repro.service import supervisor as supervisor_module
from repro.service.supervisor import BANNER_PATTERN, restart_delay


def fake_replica(*, lifetime: float = 60.0, port: int = 4321) -> list[str]:
    """argv for a fake replica: print the banner, live ``lifetime`` seconds."""
    code = (
        "import time; "
        f"print('serving on http://127.0.0.1:{port} (fake)', flush=True); "
        f"time.sleep({lifetime})"
    )
    return [sys.executable, "-c", code]


def wait_until(predicate, *, timeout: float = 20.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class Recorder:
    """Thread-safe capture of on_up / on_down callback invocations."""

    def __init__(self):
        self.lock = threading.Lock()
        self.ups = []
        self.downs = []

    def on_up(self, replica_id, host, port, pid):
        with self.lock:
            self.ups.append((replica_id, host, port, pid))

    def on_down(self, replica_id, *, quarantined):
        with self.lock:
            self.downs.append((replica_id, quarantined))


class TestRestartDelay:
    CONFIG = SupervisorConfig(restart_base_delay_seconds=0.5)

    @pytest.fixture(autouse=True)
    def _cap(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "RESTART_MAX_DELAY_SECONDS", 4.0)

    def test_exponential_growth_within_jitter_bounds(self):
        rng = random.Random(7)
        for n, nominal in [(1, 0.5), (2, 1.0), (3, 2.0), (4, 4.0), (10, 4.0)]:
            delay = restart_delay(n, self.CONFIG, rng)
            assert nominal * 0.8 <= delay <= nominal * 1.2

    def test_deterministic_under_a_seed(self):
        first = [restart_delay(n, self.CONFIG, random.Random(3)) for n in (1, 2)]
        second = [restart_delay(n, self.CONFIG, random.Random(3)) for n in (1, 2)]
        assert first == second

    def test_no_jitter_is_exact(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "RESTART_JITTER_FRACTION", 0.0)
        rng = random.Random(0)
        assert restart_delay(3, self.CONFIG, rng) == pytest.approx(2.0)
        # A base delay above the cap is its own cap, not an error.
        large = SupervisorConfig(restart_base_delay_seconds=30.0)
        assert restart_delay(3, large, rng) == pytest.approx(30.0)

    def test_restart_number_validation(self):
        with pytest.raises(ServiceError):
            restart_delay(0, self.CONFIG, random.Random(0))


class TestServeCommands:
    def test_builds_one_argv_per_replica(self):
        commands = ReplicaSupervisor.serve_commands(
            sys.executable, "net.json", 3, serve_args=["--workers", "2"]
        )
        assert sorted(commands) == ["replica-0", "replica-1", "replica-2"]
        for argv in commands.values():
            assert argv[:4] == [sys.executable, "-m", "repro", "serve"]
            # Port 0 always: respawns must never fight over a fixed port.
            assert argv[argv.index("--port") + 1] == "0"
            assert argv[-2:] == ["--workers", "2"]

    def test_count_validation(self):
        with pytest.raises(ServiceError):
            ReplicaSupervisor.serve_commands(sys.executable, "net.json", 0)


class TestBannerPattern:
    def test_matches_the_serve_banner_shape(self):
        line = (
            "serving corpus.json on http://127.0.0.1:8080 "
            "(abc123, thread backend, 4 workers, queue depth 64)"
        )
        match = BANNER_PATTERN.search(line)
        assert match is not None
        assert (match.group(1), int(match.group(2))) == ("127.0.0.1", 8080)


class TestSupervision:
    def test_start_parses_banners_and_reports_up(self):
        recorder = Recorder()
        commands = {
            "replica-0": fake_replica(port=4321),
            "replica-1": fake_replica(port=4322),
        }
        supervisor = ReplicaSupervisor(
            commands, SupervisorConfig(), on_up=recorder.on_up
        )
        with supervisor:
            assert {
                (rid, host, port) for rid, host, port, _ in recorder.ups
            } == {
                ("replica-0", "127.0.0.1", 4321),
                ("replica-1", "127.0.0.1", 4322),
            }
            stats = supervisor.stats()["replicas"]
            assert all(row["alive"] for row in stats)
            assert all(row["restarts"] == 0 for row in stats)
        # Context exit stops the fleet.
        assert all(
            replica.process.poll() is not None
            for replica in supervisor.replicas.values()
        )

    def test_crashing_replica_restarts_then_quarantines(self):
        recorder = Recorder()
        config = SupervisorConfig(
            restart_base_delay_seconds=0.01, max_restarts_in_window=2
        )
        supervisor = ReplicaSupervisor(
            {"replica-0": fake_replica(lifetime=0.0)},
            config,
            on_up=recorder.on_up,
            on_down=recorder.on_down,
        )
        supervisor.start()
        try:
            assert wait_until(
                lambda: supervisor.replicas["replica-0"].quarantined
            )
        finally:
            supervisor.stop()
        replica = supervisor.replicas["replica-0"]
        # Initial launch + 2 budgeted restarts, then the third death blows
        # the window budget.
        assert replica.restarts_total == 2
        assert len(recorder.ups) == 3
        assert recorder.downs[-1] == ("replica-0", True)
        assert [q for _, q in recorder.downs[:-1]] == [False, False]
        stats = supervisor.stats()["replicas"][0]
        assert stats["quarantined"] and not stats["alive"]
        assert stats["last_exit_code"] == 0

    def test_respawn_reports_fresh_address(self):
        """Each incarnation's banner re-fires on_up — the router's cue to
        re-admit the replica with a fresh breaker."""
        recorder = Recorder()
        config = SupervisorConfig(
            restart_base_delay_seconds=0.01, max_restarts_in_window=10
        )
        supervisor = ReplicaSupervisor(
            {"replica-0": fake_replica(lifetime=0.3)},
            config,
            on_up=recorder.on_up,
            on_down=recorder.on_down,
        )
        supervisor.start()
        try:
            assert wait_until(lambda: len(recorder.ups) >= 2)
        finally:
            supervisor.stop()
        pids = [pid for _, _, _, pid in recorder.ups]
        assert len(set(pids)) == len(pids)  # a new process each time
        assert ("replica-0", False) in recorder.downs

    def test_start_timeout_raises_and_cleans_up(self):
        silent = [sys.executable, "-c", "import time; time.sleep(60)"]
        supervisor = ReplicaSupervisor(
            {"replica-0": silent},
            SupervisorConfig(start_timeout_seconds=0.5),
        )
        with pytest.raises(ServiceError, match="no serving banner"):
            supervisor.start()
        process = supervisor.replicas["replica-0"].process
        assert process is not None and process.poll() is not None

    def test_needs_at_least_one_replica(self):
        with pytest.raises(ServiceError):
            ReplicaSupervisor({})
