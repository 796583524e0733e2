"""Fault-tolerant replica routing: consistent hashing + failover.

One ``repro serve`` replica dies with its machine; a fleet of them behind
this router keeps answering.  The router consistent-hashes the **canonical
query key** (the same normal form the result cache uses) onto a hash ring
of replicas, so a recurring query always lands on the same replica — its
:class:`~repro.service.cache.ResultCache` entry and row-cache rows stay
hot, which is the Atrapos observation: recurring meta-path workloads pay
off only when steered back to the node that already materialized them.

Robustness is the headline, layered cheapest-first:

* **Passive failure detection** — a connection refused, timeout, torn
  response, or 5xx answer marks the replica unhealthy immediately and the
  request fails over to the next distinct replica on the ring.
* **Per-replica circuit breakers** — the
  :class:`~repro.engine.resilience.CircuitBreaker` machinery (closed →
  open → half-open) short-circuits attempts against a replica that keeps
  failing, so one dead node cannot tax every request with a connect
  timeout.
* **Active health probes** — :class:`~repro.service.probe.HealthProber`
  sweeps ``/healthz`` every interval; a dead or *draining* replica stops
  receiving fresh keys within one interval.
* **Graceful degradation** — when every candidate is down the router
  answers a typed 503 with a ``Retry-After`` hint derived from the soonest
  breaker half-open time, instead of hanging or retrying forever.

What does **not** fail over: 4xx answers (the replica is answering
correctly — the query is the problem) and 429 admission sheds, which pass
through with the replica's own ``Retry-After`` hint and do not count
against its breaker.

The HTTP client seams are instrumented with the ``router.connect`` /
``router.send`` / ``router.recv`` fault points
(:mod:`repro.faultinject`), so the chaos suite can inject connection
refusals, mid-body disconnects, and slow responses deterministically.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro import faultinject
from repro.engine.resilience import CircuitBreaker
from repro.exceptions import (
    CircuitOpenError,
    NoReplicasAvailableError,
    QueryError,
    ReplicaUnavailableError,
    ServiceError,
    TransientFaultError,
)
from repro.service.config import RouterConfig
from repro.service.http import (
    CountingHTTPServer,
    JSONRequestHandler,
    encode_body,
)
from repro.service.keys import (
    BODY_ERRORS,
    canonical_query_key,
    extract_query_text,
)

__all__ = [
    "HashRing",
    "ReplicaState",
    "RoutedResponse",
    "Router",
    "RouterHTTPServer",
    "make_router_server",
]


def _ring_hash(value: str) -> int:
    """Stable 64-bit ring position for a key or virtual node.

    blake2b rather than ``hash()``: ring placement must agree across
    processes and interpreter runs (PYTHONHASHSEED randomizes ``hash``),
    or a router restart would scatter every replica's key range.
    """
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring over replica ids with virtual nodes.

    Each replica owns ``virtual_nodes`` pseudo-random ring positions;
    a key belongs to the first position at or after its own hash
    (wrapping).  Removing a replica reassigns only *its* positions — every
    other replica's key range is untouched, which is the whole point:
    replica death must not scatter the fleet's warm caches.

    The ring hashes stable replica **ids** (``replica-0``), never
    addresses: a replica respawned on a new port keeps exactly its old key
    range.
    """

    def __init__(
        self, nodes: Iterable[str] = (), *, virtual_nodes: int = 64
    ) -> None:
        if virtual_nodes < 1:
            raise ServiceError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        self.virtual_nodes = virtual_nodes
        self._hashes: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def add(self, node: str) -> None:
        """Place ``node``'s virtual nodes on the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for vnode in range(self.virtual_nodes):
            position = _ring_hash(f"{node}#{vnode}")
            index = bisect.bisect(self._hashes, position)
            self._hashes.insert(index, position)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Remove ``node``'s virtual nodes (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [
            (position, owner)
            for position, owner in zip(self._hashes, self._owners)
            if owner != node
        ]
        self._hashes = [position for position, _ in keep]
        self._owners = [owner for _, owner in keep]

    def owner(self, key: str) -> str | None:
        """The replica owning ``key``, or ``None`` on an empty ring."""
        candidates = self.candidates(key, count=1)
        return candidates[0] if candidates else None

    def candidates(self, key: str, *, count: int | None = None) -> list[str]:
        """Distinct replicas in failover order, walking clockwise from ``key``.

        The first entry is the key's owner; each subsequent entry is the
        replica that would inherit the key if everything before it died —
        exactly the order the router tries them in.
        """
        if not self._hashes:
            return []
        limit = len(self._nodes) if count is None else min(count, len(self._nodes))
        start = bisect.bisect(self._hashes, _ring_hash(key)) % len(self._hashes)
        ordered: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._hashes)):
            owner = self._owners[(start + offset) % len(self._hashes)]
            if owner in seen:
                continue
            seen.add(owner)
            ordered.append(owner)
            if len(ordered) == limit:
                break
        return ordered


@dataclass
class ReplicaState:
    """Everything the router tracks about one replica.

    ``healthy`` / ``draining`` come from the active prober and passive
    failure detection; ``quarantined`` comes from the supervisor's
    crash-loop budget.  The breaker is replaced wholesale when the
    supervisor reports a respawn — a fresh process deserves a closed
    breaker, which is what lets a recovered replica's key range return
    within one probe interval instead of one breaker reset window.
    """

    replica_id: str
    breaker: CircuitBreaker
    host: str | None = None
    port: int | None = None
    pid: int | None = None
    healthy: bool = False
    draining: bool = False
    quarantined: bool = False
    generation: int = 0
    routed: int = 0
    completed: int = 0
    failed: int = 0
    last_probe: str | None = None
    #: Index metadata from the replica's last health probe (generation,
    #: row coverage, sub-path cache hit rate, last-reindex stamp) — lets
    #: the router's /stats answer "has every replica adapted yet?".
    index_info: dict | None = None

    @property
    def address(self) -> str | None:
        if self.host is None or self.port is None:
            return None
        return f"{self.host}:{self.port}"

    def snapshot(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "address": self.address,
            "pid": self.pid,
            "healthy": self.healthy,
            "draining": self.draining,
            "quarantined": self.quarantined,
            "generation": self.generation,
            "breaker_state": self.breaker.state,
            "breaker_retry_in_seconds": self.breaker.seconds_until_half_open(),
            "routed": self.routed,
            "completed": self.completed,
            "failed": self.failed,
            "last_probe": self.last_probe,
            "index": self.index_info,
        }


@dataclass
class RoutedResponse:
    """One answer the router hands its HTTP frontend.

    ``replica_id`` is ``None`` for answers the router produced itself
    (malformed request bodies it refused locally).  ``attempts`` counts
    replicas actually tried; ``failover`` is true when the answer came
    from anyone but the key's ring owner.
    """

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    replica_id: str | None = None
    attempts: int = 1
    failover: bool = False


#: Replica response headers worth forwarding to the client.  Everything
#: else is hop-by-hop (Date, Server, Content-Length are regenerated).
_FORWARD_HEADERS = ("Content-Type", "Retry-After")


def _local_error(status: int, error: BaseException) -> RoutedResponse:
    """A router-local error response shaped exactly like a replica's."""
    body = encode_body(
        {"error": {"type": type(error).__name__, "message": str(error)}}
    )
    return RoutedResponse(
        status=status,
        headers={"Content-Type": "application/json"},
        body=body,
        replica_id=None,
        attempts=0,
    )


class Router:
    """Route requests onto healthy replicas by consistent hash, with failover.

    Parameters
    ----------
    replica_ids:
        Stable fleet labels (``replica-0`` ... ``replica-N``); these are
        what the ring hashes, so addresses may change under them.
    config:
        Routing knobs; see :class:`~repro.service.config.RouterConfig`.
    clock, sleep:
        Injectable time sources for deterministic tests (breakers share
        ``clock``; ``sleep`` paces failover backoff).

    Replica addresses arrive through :meth:`set_replica_address` — from a
    :class:`~repro.service.supervisor.ReplicaSupervisor`'s ``on_up``
    callback in production, or directly in tests and static deployments.
    """

    def __init__(
        self,
        replica_ids: Iterable[str],
        config: RouterConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config if config is not None else RouterConfig()
        self._clock = clock
        self._sleep = sleep
        ids = list(replica_ids)
        if not ids:
            raise ServiceError("the router needs at least one replica id")
        if len(set(ids)) != len(ids):
            raise ServiceError(f"duplicate replica ids: {ids}")
        self.ring = HashRing(ids, virtual_nodes=self.config.virtual_nodes)
        self._lock = threading.Lock()
        self.replicas: dict[str, ReplicaState] = {
            replica_id: ReplicaState(replica_id, self._fresh_breaker(replica_id))
            for replica_id in ids
        }
        # Router-level counters (guarded by the lock).
        self._routed = 0
        self._failovers = 0
        self._breaker_skips = 0
        self._sheds_forwarded = 0
        self._unroutable = 0

    def _fresh_breaker(self, replica_id: str) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_seconds=self.config.breaker_reset_seconds,
            clock=self._clock,
            name=replica_id,
        )

    # ------------------------------------------------------------------
    # Fleet wiring (supervisor callbacks / probe results)
    # ------------------------------------------------------------------
    def set_replica_address(
        self, replica_id: str, host: str, port: int, pid: int | None = None
    ) -> None:
        """A replica (re)spawned at ``host:port``; route to it again.

        Resets the replica's breaker and clears draining/quarantine: the
        process at this address is new, and judging it by its predecessor's
        failures would keep a perfectly healthy respawn out of rotation
        for a full reset window.
        """
        with self._lock:
            state = self._state(replica_id)
            state.host = host
            state.port = port
            state.pid = pid
            state.generation += 1
            state.healthy = True
            state.draining = False
            state.quarantined = False
            state.breaker = self._fresh_breaker(replica_id)

    def mark_replica_down(
        self, replica_id: str, *, quarantined: bool = False
    ) -> None:
        """Remove a replica from rotation (dead, or crash-loop quarantined)."""
        with self._lock:
            state = self._state(replica_id)
            state.healthy = False
            if quarantined:
                state.quarantined = True

    def record_probe(
        self, replica_id: str, verdict: str, index_info: dict | None = None
    ) -> None:
        """Apply one health-probe verdict (``ok``/``draining``/anything else).

        Probes only steer rotation; they never clear quarantine — that is
        the supervisor's call (a quarantined replica may well answer its
        ``/healthz`` right up to its next crash).  ``index_info`` (when the
        probe payload carried it) is stored verbatim for observability.
        """
        with self._lock:
            state = self._state(replica_id)
            state.last_probe = verdict
            if index_info is not None:
                state.index_info = index_info
            if verdict == "ok":
                state.healthy = True
                state.draining = False
            elif verdict == "draining":
                state.healthy = False
                state.draining = True
            else:
                state.healthy = False

    def _state(self, replica_id: str) -> ReplicaState:
        state = self.replicas.get(replica_id)
        if state is None:
            raise ServiceError(f"unknown replica id {replica_id!r}")
        return state

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_query(self, body: bytes) -> RoutedResponse:
        """Route one ``POST /query`` body to the right replica.

        The canonical query key — not the raw text — is hashed, so every
        spelling of a query lands on the replica whose result cache
        already holds its answer.  Bodies the replica would reject with
        400 are refused here instead, shaped identically, without
        spending a replica round-trip.
        """
        try:
            query_text = extract_query_text(body)
        except BODY_ERRORS as error:
            return _local_error(400, error)
        try:
            key = canonical_query_key(query_text)
        except QueryError as error:
            return _local_error(400, error)
        return self.forward(
            key,
            "POST",
            "/query",
            body=body,
            headers={"Content-Type": "application/json"},
        )

    def forward(
        self,
        key: str,
        method: str,
        path: str,
        *,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> RoutedResponse:
        """Send one request to ``key``'s replica, failing over along the ring.

        Tries up to ``config.max_attempts`` distinct healthy candidates in
        ring order.  Raises
        :class:`~repro.exceptions.NoReplicasAvailableError` when none
        could answer — with a retry hint derived from the soonest breaker
        half-open time among the key's candidates.
        """
        ordered = self.ring.candidates(key, count=self.config.max_attempts)
        candidates = self._usable(ordered)
        attempts = 0
        last_error: ReplicaUnavailableError | None = None
        for state in candidates:
            if attempts:
                # Pause between failover hops: a fleet mid-restart gets a
                # breath instead of an instant second connect storm.
                self._sleep(self.config.failover_backoff_seconds)
            attempts += 1
            try:
                response = state.breaker.call(
                    lambda state=state: self._attempt(
                        state, method, path, body, headers
                    )
                )
            except CircuitOpenError:
                attempts -= 1  # never reached the wire
                with self._lock:
                    self._breaker_skips += 1
                continue
            except ReplicaUnavailableError as error:
                last_error = error
                with self._lock:
                    state.failed += 1
                    # Passive detection: stop sending fresh keys here until
                    # a probe (or the supervisor) says otherwise.
                    state.healthy = False
                    self._failovers += 1
                continue
            with self._lock:
                state.routed += 1
                state.completed += 1
                self._routed += 1
                if response.status == 429:
                    self._sheds_forwarded += 1
            response.replica_id = state.replica_id
            response.attempts = attempts
            response.failover = bool(ordered) and state.replica_id != ordered[0]
            return response
        with self._lock:
            self._unroutable += 1
        retry_after = self._retry_after_hint(ordered)
        detail = f" (last error: {last_error})" if last_error is not None else ""
        raise NoReplicasAvailableError(
            f"no replica could answer this request: tried {attempts} of "
            f"{len(ordered)} candidates for key owner {ordered[0] if ordered else None!r}"
            f"{detail}; retry in {retry_after:.3g}s",
            retry_after_seconds=retry_after,
            attempted=attempts,
        )

    def _usable(self, ordered: list[str]) -> list[ReplicaState]:
        """Candidate states worth attempting, preserving ring order.

        Quarantined and draining replicas are skipped outright; replicas
        passively marked unhealthy are kept *last* — if every healthy
        candidate fails, an unhealthy one may have recovered since its
        mark (the probe only re-admits it once per interval, and a stale
        mark must not turn a routable request into a 503).
        """
        with self._lock:
            states = [self.replicas[replica_id] for replica_id in ordered]
            healthy = [
                state
                for state in states
                if state.address is not None
                and not state.quarantined
                and not state.draining
                and state.healthy
            ]
            suspect = [
                state
                for state in states
                if state.address is not None
                and not state.quarantined
                and not state.draining
                and not state.healthy
            ]
        return healthy + suspect

    def _attempt(
        self,
        state: ReplicaState,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str] | None,
    ) -> RoutedResponse:
        """One replica round-trip; raises ``ReplicaUnavailableError`` on the
        failures that justify failover (and feed the breaker)."""
        connection: http.client.HTTPConnection | None = None
        try:
            faultinject.check("router.connect")
            connection = http.client.HTTPConnection(
                state.host,
                state.port,
                timeout=self.config.attempt_timeout_seconds,
            )
            connection.connect()
            faultinject.check("router.send")
            connection.request(method, path, body=body, headers=headers or {})
            faultinject.check("router.recv")
            response = connection.getresponse()
            payload = response.read()
            status = response.status
            forwarded = {
                name: value
                for name, value in response.getheaders()
                if name in _FORWARD_HEADERS
            }
        except (
            OSError,
            http.client.HTTPException,
            TimeoutError,
            TransientFaultError,
        ) as error:
            raise ReplicaUnavailableError(
                f"replica {state.replica_id!r} ({state.address}) unreachable: "
                f"{type(error).__name__}: {error}",
                replica_id=state.replica_id,
            ) from error
        finally:
            if connection is not None:
                connection.close()
        if status >= 500:
            # The replica answered but cannot serve (draining 503, crashed
            # worker 500, ...): fail over.  Its refusal still counts
            # against the breaker — a replica that keeps refusing is down
            # for routing purposes.
            raise ReplicaUnavailableError(
                f"replica {state.replica_id!r} ({state.address}) answered "
                f"HTTP {status}",
                replica_id=state.replica_id,
                status=status,
            )
        return RoutedResponse(status=status, headers=forwarded, body=payload)

    def _retry_after_hint(self, ordered: list[str]) -> float:
        """Honest 503 Retry-After: soonest breaker half-open among candidates.

        When no breaker is open (the fleet is down for non-breaker
        reasons, e.g. every replica probe-failed), the health probe
        interval is the soonest anything can change.
        """
        with self._lock:
            waits = [
                self.replicas[replica_id].breaker.seconds_until_half_open()
                for replica_id in ordered
            ]
        open_waits = [wait for wait in waits if wait > 0]
        if open_waits:
            return max(0.05, min(open_waits))
        return self.config.probe_interval_seconds

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthy_count(self) -> int:
        with self._lock:
            return sum(
                1
                for state in self.replicas.values()
                if state.healthy and not state.quarantined
            )

    def stats(self) -> dict:
        """JSON-safe router counters plus per-replica snapshots."""
        with self._lock:
            per_replica = [
                self.replicas[replica_id].snapshot()
                for replica_id in sorted(self.replicas)
            ]
            counters = {
                "routed": self._routed,
                "failovers": self._failovers,
                "breaker_skips": self._breaker_skips,
                "sheds_forwarded": self._sheds_forwarded,
                "unroutable": self._unroutable,
            }
        return {
            "router": {
                "replicas": len(per_replica),
                "healthy": sum(
                    1
                    for row in per_replica
                    if row["healthy"] and not row["quarantined"]
                ),
                "virtual_nodes": self.config.virtual_nodes,
                **counters,
            },
            "per_replica": per_replica,
        }


# ----------------------------------------------------------------------
# HTTP frontend
# ----------------------------------------------------------------------
class RouterHTTPServer(CountingHTTPServer):
    """The router's own HTTP face — same endpoints the replicas speak.

    ``POST /query`` routes; ``GET /schema`` proxies (hashed on the path,
    with the same failover); ``/healthz``, ``/stats``, and ``/replicas``
    answer locally about the fleet.
    """

    def __init__(
        self,
        address,
        router: Router,
        *,
        supervisor=None,
        max_requests: int | None = None,
    ):
        super().__init__(address, _RouterHandler, max_requests=max_requests)
        self.router = router
        self.supervisor = supervisor


class _RouterHandler(JSONRequestHandler):
    """Thin adapter from HTTP to :class:`Router` calls."""

    server: RouterHTTPServer

    def _send_routed(self, routed: RoutedResponse) -> None:
        headers = dict(routed.headers)
        if routed.replica_id is not None:
            # Which replica answered — the chaos suite asserts key
            # ownership moves (and moves back) through this header.
            headers["X-Repro-Replica"] = routed.replica_id
        self._send_raw(routed.status, routed.body, headers=headers)

    def _answer(self, route: Callable[[], RoutedResponse]) -> None:
        """Relay what ``route`` obtains, or a typed 503 when no replica can."""
        try:
            routed = route()
        except NoReplicasAvailableError as error:
            retry_after = error.retry_after_seconds or 0.1
            self._error(503, error, headers={"Retry-After": f"{retry_after:.3f}"})
            return
        self._send_routed(routed)

    # -- GET -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        router = self.server.router
        if self.path == "/healthz":
            healthy = router.healthy_count()
            total = len(router.replicas)
            status = "ok" if healthy == total else (
                "degraded" if healthy else "unavailable"
            )
            self._send_json(
                200 if healthy else 503,
                {
                    "status": status,
                    "role": "router",
                    "replicas": total,
                    "healthy_replicas": healthy,
                },
            )
        elif self.path == "/stats":
            stats = router.stats()
            if self.server.supervisor is not None:
                stats["supervisor"] = self.server.supervisor.stats()
            self._send_json(200, stats)
        elif self.path == "/replicas":
            payload = {"replicas": router.stats()["per_replica"]}
            if self.server.supervisor is not None:
                payload["supervisor"] = self.server.supervisor.stats()
            self._send_json(200, payload)
        elif self.path == "/schema":
            # Network metadata is replica-independent; hash on the path so
            # repeated calls reuse one replica's connection-warm path.
            self._answer(
                lambda: router.forward(self.path, "GET", self.path)
            )
        else:
            self._not_found()

    # -- POST ------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path != "/query":
            self._not_found()
            return
        body = self._read_body()
        if body is not None:
            self._answer(lambda: self.server.router.route_query(body))


def make_router_server(
    router: Router,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    supervisor=None,
    max_requests: int | None = None,
) -> RouterHTTPServer:
    """Bind (but do not start) the router's HTTP frontend.

    Mirrors :func:`repro.service.http.make_server`: ``port=0`` binds an
    ephemeral port, ``serve_forever()`` runs, ``shutdown()`` stops.
    """
    return RouterHTTPServer(
        (host, port), router, supervisor=supervisor, max_requests=max_requests
    )
