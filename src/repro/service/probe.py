"""Active health probing for the replica router.

Passive failure detection (a routed request failing) only notices a dead
replica when traffic happens to hit it; the :class:`HealthProber` closes
that gap by sweeping every replica's ``/healthz`` on a fixed interval.
Combined with the readiness semantics of the replica frontend — ``200
ok`` while serving, ``503 {"status": "draining"}`` once a SIGTERM drain
begins — the probe gives the router two guarantees:

* a dead replica stops receiving *fresh* keys within one probe interval
  (in-flight requests fail over immediately via passive detection);
* a draining replica leaves rotation **before** its socket dies, so its
  final in-flight queries finish without new ones piling on.

Probes are deliberately dumb HTTP GETs with a short timeout; verdict
interpretation lives in :meth:`repro.service.router.Router.record_probe`
so the prober owns scheduling and nothing else.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import TYPE_CHECKING

__all__ = ["HealthProber", "probe_replica_detail"]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.router import ReplicaState, Router

#: Socket timeout of one probe request.
PROBE_TIMEOUT_SECONDS = 2.0


def probe_replica_detail(
    host: str, port: int, *, timeout: float
) -> tuple[str, dict]:
    """One ``/healthz`` round-trip: ``(verdict, payload)``.

    The verdict drives rotation: ``"ok"`` (healthy and ready),
    ``"draining"`` (alive but leaving), ``"unreachable"`` (no answer), or
    the replica's own status word for anything else (``"closed"``, ...) —
    anything but ``"ok"`` takes the replica out of rotation.  The payload is
    whatever the replica reported — notably its ``"index"`` metadata block
    (index generation, row coverage, sub-path cache hit rate, last-reindex
    stamp), which the router stores per replica and re-exports from its own
    ``/stats``.  An unreachable replica yields an empty payload.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        payload = json.loads(response.read() or b"{}")
    except (OSError, http.client.HTTPException, TimeoutError, ValueError):
        return "unreachable", {}
    finally:
        connection.close()
    if not isinstance(payload, dict):
        payload = {}
    status_text = payload.get("status")
    if response.status == 200 and status_text == "ok":
        return "ok", payload
    if isinstance(status_text, str) and status_text:
        return status_text, payload
    return f"http-{response.status}", payload


class HealthProber:
    """A background thread sweeping replica ``/healthz`` endpoints.

    Parameters
    ----------
    router:
        The router whose replicas are probed; verdicts are applied through
        :meth:`~repro.service.router.Router.record_probe`; its config
        sets the probe interval.

    ``probe_once()`` runs one synchronous sweep — tests drive it directly
    instead of sleeping through intervals, and ``start()``/``stop()``
    manage the background loop for real deployments.
    """

    def __init__(self, router: "Router") -> None:
        self.router = router
        self.interval_seconds = router.config.probe_interval_seconds
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Completed sweeps (observable progress for tests and /stats).
        self.sweeps = 0

    # ------------------------------------------------------------------
    def probe_once(self) -> dict[str, str]:
        """Probe every addressed replica once; returns {replica_id: verdict}.

        Quarantined replicas are still probed (the verdict lands in
        ``last_probe`` for operators) but ``record_probe`` never clears
        quarantine — only the supervisor can.
        """
        verdicts: dict[str, str] = {}
        for replica_id, state in list(self.router.replicas.items()):
            host, port = state.host, state.port
            if host is None or port is None:
                continue
            verdict, payload = probe_replica_detail(
                host, port, timeout=PROBE_TIMEOUT_SECONDS
            )
            index_info = payload.get("index")
            self.router.record_probe(
                replica_id,
                verdict,
                index_info=index_info if isinstance(index_info, dict) else None,
            )
            verdicts[replica_id] = verdict
        self.sweeps += 1
        return verdicts

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background probe loop (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-route-prober", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.probe_once()
            except Exception:  # noqa: BLE001 - the prober must never die
                pass
            self._stop.wait(self.interval_seconds)
