"""Supervised ``repro serve`` replica processes: spawn, watch, restart.

The router (:mod:`repro.service.router`) assumes somebody keeps the fleet
alive; :class:`ReplicaSupervisor` is that somebody.  It spawns one
``repro serve`` subprocess per replica, reads each serving banner to learn
the (ephemeral) port, and then watches the processes:

* a replica that exits — crash or otherwise — is **restarted** after an
  exponential backoff with seeded jitter, so a fleet-wide crash does not
  restart in lockstep;
* a replica that keeps crashing burns through its per-replica restart
  budget (``max_restarts_in_window`` within :data:`RESTART_WINDOW_SECONDS`)
  and is **quarantined**: taken out of rotation permanently instead of
  fork-bombing the host;
* every address change flows to the router through the ``on_up`` /
  ``on_down`` callbacks, so a respawned replica re-enters rotation with a
  fresh circuit breaker the moment its banner appears.

The supervisor is deliberately command-agnostic — it supervises *argv
lists* whose processes print a ``http://host:port`` banner — which is what
makes it testable with 50 ms fake replicas instead of full index builds.
"""

from __future__ import annotations

import random
import re
import signal
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.exceptions import ServiceError
from repro.service.config import SupervisorConfig

__all__ = ["ReplicaSupervisor", "restart_delay", "BANNER_PATTERN"]

#: The serving banner both ``repro serve`` and fake test replicas print.
BANNER_PATTERN = re.compile(r"http://([\d.]+):(\d+)")

#: Growth factor of the restart backoff.
RESTART_MULTIPLIER = 2.0
#: Cap of the restart backoff; a larger base delay is its own cap.
RESTART_MAX_DELAY_SECONDS = 15.0
#: Uniform jitter on each delay (``delay * (1 ± fraction)``), so a
#: fleet-wide crash does not restart in lockstep.
RESTART_JITTER_FRACTION = 0.2
#: Sliding window of the per-replica restart budget.
RESTART_WINDOW_SECONDS = 60.0


def restart_delay(
    restart_number: int, config: SupervisorConfig, rng: random.Random
) -> float:
    """Backoff before restart number ``restart_number`` (1-based) of a replica.

    ``base * RESTART_MULTIPLIER**(n-1)``, capped at
    ``max(RESTART_MAX_DELAY_SECONDS, base)``, then jittered by
    ``±RESTART_JITTER_FRACTION`` from the supervisor's seeded RNG —
    deterministic under test, de-synchronized in production.
    """
    if restart_number < 1:
        raise ServiceError(
            f"restart_number must be >= 1, got {restart_number}"
        )
    base = config.restart_base_delay_seconds
    delay = min(
        base * RESTART_MULTIPLIER ** (restart_number - 1),
        max(RESTART_MAX_DELAY_SECONDS, base),
    )
    return delay * (1.0 + rng.uniform(-RESTART_JITTER_FRACTION, RESTART_JITTER_FRACTION))


@dataclass
class _Replica:
    """Supervisor-side bookkeeping for one replica slot."""

    replica_id: str
    command: list[str]
    process: "subprocess.Popen | None" = None
    host: str | None = None
    port: int | None = None
    quarantined: bool = False
    restarts_total: int = 0
    #: Monotonic timestamps of recent restarts (the quarantine window).
    restart_times: deque = field(default_factory=deque)
    #: Set when this incarnation's banner has been parsed.
    banner_seen: threading.Event = field(default_factory=threading.Event)
    #: Monotonic time before which no restart may happen (backoff).
    next_restart_at: float | None = None
    exit_code: int | None = None


class ReplicaSupervisor:
    """Keep N replica processes alive behind restart backoff and quarantine.

    Parameters
    ----------
    commands:
        ``{replica_id: argv}`` — each argv must start a process that
        prints a banner containing ``http://host:port`` on stdout once it
        is serving (``repro serve`` does; see
        :meth:`serve_commands` for building these).
    config:
        Restart policy; see
        :class:`~repro.service.config.SupervisorConfig`.
    on_up:
        ``f(replica_id, host, port, pid)`` — called (from a supervisor
        thread) every time a replica incarnation starts serving.  Wire to
        :meth:`~repro.service.router.Router.set_replica_address`.
    on_down:
        ``f(replica_id, quarantined=...)`` — called when a replica exits
        (and again with ``quarantined=True`` if its budget runs out).
        Wire to :meth:`~repro.service.router.Router.mark_replica_down`.
    env:
        Environment for the children (default: inherit).
    seed:
        Seed for the jitter RNG (deterministic backoff in tests).
    clock:
        Injectable time source.
    """

    def __init__(
        self,
        commands: Mapping[str, Sequence[str]],
        config: SupervisorConfig | None = None,
        *,
        on_up: Callable[[str, str, int, int], None] | None = None,
        on_down: Callable[..., None] | None = None,
        env: Mapping[str, str] | None = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not commands:
            raise ServiceError("the supervisor needs at least one replica")
        self.config = config if config is not None else SupervisorConfig()
        self._on_up = on_up
        self._on_down = on_down
        self._env = dict(env) if env is not None else None
        self._rng = random.Random(seed)
        self._clock = clock
        self._lock = threading.Lock()
        self._stopping = False
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self.replicas: dict[str, _Replica] = {
            replica_id: _Replica(replica_id, list(argv))
            for replica_id, argv in commands.items()
        }

    # ------------------------------------------------------------------
    # Command building
    # ------------------------------------------------------------------
    @staticmethod
    def serve_commands(
        python: str,
        network_path: str,
        count: int,
        *,
        serve_args: Sequence[str] = (),
    ) -> dict[str, list[str]]:
        """argv per replica for ``count`` ``repro serve`` processes.

        Every replica binds port 0 (the banner reports the real one) so
        respawns can never collide with a port some other process grabbed
        in the meantime; the ring hashes stable replica *ids*, so the
        moving port is invisible to key placement.
        """
        if count < 1:
            raise ServiceError(f"replica count must be >= 1, got {count}")
        base = [
            python,
            "-m",
            "repro",
            "serve",
            "--network",
            network_path,
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            *serve_args,
        ]
        return {f"replica-{i}": list(base) for i in range(count)}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch every replica, await banners, start the monitor.

        Raises :class:`~repro.exceptions.ServiceError` — after terminating
        anything already launched — when any replica fails to produce its
        banner within ``start_timeout_seconds``.
        """
        try:
            for replica in self.replicas.values():
                self._launch(replica)
            deadline = time.monotonic() + self.config.start_timeout_seconds
            for replica in self.replicas.values():
                remaining = max(0.0, deadline - time.monotonic())
                if not replica.banner_seen.wait(remaining):
                    raise ServiceError(
                        f"replica {replica.replica_id!r} produced no serving "
                        f"banner within {self.config.start_timeout_seconds:.0f}s"
                        + (
                            f" (exit code {replica.process.poll()})"
                            if replica.process is not None
                            and replica.process.poll() is not None
                            else ""
                        )
                    )
        except BaseException:
            self.stop()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-route-supervisor", daemon=True
        )
        self._monitor.start()

    def stop(self, *, terminate_timeout: float = 15.0) -> None:
        """SIGTERM the fleet, wait for graceful drains, SIGKILL stragglers."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
            self._monitor = None
        procs = [
            replica.process
            for replica in self.replicas.values()
            if replica.process is not None
        ]
        for process in procs:
            if process.poll() is None:
                try:
                    process.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + terminate_timeout
        for process in procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _launch(self, replica: _Replica) -> None:
        replica.banner_seen = threading.Event()
        replica.host = None
        replica.port = None
        replica.exit_code = None
        replica.process = subprocess.Popen(  # noqa: S603 - operator-provided argv
            replica.command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=self._env,
        )
        # One reader thread per incarnation: parses the banner, then keeps
        # draining stdout until EOF so a chatty replica can never block on
        # a full pipe.
        threading.Thread(
            target=self._read_stdout,
            args=(replica, replica.process),
            name=f"repro-route-stdout-{replica.replica_id}",
            daemon=True,
        ).start()

    def _read_stdout(self, replica: _Replica, process: "subprocess.Popen") -> None:
        stream = process.stdout
        if stream is None:  # pragma: no cover - Popen always pipes here
            return
        try:
            for line in stream:
                if replica.banner_seen.is_set():
                    continue
                match = BANNER_PATTERN.search(line)
                if match is None:
                    continue
                host, port = match.group(1), int(match.group(2))
                with self._lock:
                    # A stale reader racing a respawn must not resurrect
                    # the dead incarnation's address.
                    if replica.process is not process:
                        return
                    replica.host, replica.port = host, port
                replica.banner_seen.set()
                if self._on_up is not None:
                    self._on_up(replica.replica_id, host, port, process.pid)
        finally:
            stream.close()

    # ------------------------------------------------------------------
    # Monitoring / restart policy
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            for replica in self.replicas.values():
                self._check(replica)
            self._stop.wait(0.05)

    def _check(self, replica: _Replica) -> None:
        with self._lock:
            if self._stopping or replica.quarantined:
                return
            process = replica.process
        if process is None:
            return
        exit_code = process.poll()
        if exit_code is None:
            return
        if replica.exit_code is None:
            # First observation of this death: report it and schedule the
            # restart (or quarantine on a blown budget).
            replica.exit_code = exit_code
            now = self._clock()
            while replica.restart_times and (
                now - replica.restart_times[0] > RESTART_WINDOW_SECONDS
            ):
                replica.restart_times.popleft()
            if len(replica.restart_times) >= self.config.max_restarts_in_window:
                with self._lock:
                    replica.quarantined = True
                    replica.process = None
                if self._on_down is not None:
                    self._on_down(replica.replica_id, quarantined=True)
                return
            if self._on_down is not None:
                self._on_down(replica.replica_id, quarantined=False)
            replica.restart_times.append(now)
            replica.restarts_total += 1
            replica.next_restart_at = now + restart_delay(
                replica.restarts_total, self.config, self._rng
            )
            return
        if (
            replica.next_restart_at is not None
            and self._clock() >= replica.next_restart_at
        ):
            replica.next_restart_at = None
            with self._lock:
                if self._stopping:
                    return
            self._launch(replica)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe per-replica supervision state."""
        with self._lock:
            rows = []
            for replica_id in sorted(self.replicas):
                replica = self.replicas[replica_id]
                process = replica.process
                rows.append(
                    {
                        "replica_id": replica_id,
                        "pid": process.pid if process is not None else None,
                        "alive": bool(
                            process is not None and process.poll() is None
                        ),
                        "address": (
                            f"{replica.host}:{replica.port}"
                            if replica.host is not None
                            else None
                        ),
                        "restarts": replica.restarts_total,
                        "quarantined": replica.quarantined,
                        "last_exit_code": replica.exit_code,
                    }
                )
        return {"replicas": rows}

    # ------------------------------------------------------------------
    def __enter__(self) -> "ReplicaSupervisor":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
