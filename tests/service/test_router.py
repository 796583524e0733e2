"""Tests for :mod:`repro.service.router` and :mod:`repro.service.probe`.

Unit layers (HashRing, breaker interplay, fault-point schedules) run
without sockets; the integration layer routes over *real* in-thread
``QueryService`` replicas so failover, affinity, draining, and shed
pass-through are exercised over actual HTTP.
"""

import http.client
import json
import threading

import pytest

from repro import faultinject
from repro.exceptions import NoReplicasAvailableError, ServiceError
from repro.service import (
    HealthProber,
    QueryService,
    Router,
    RouterConfig,
    ServiceConfig,
    make_router_server,
    make_server,
)
from repro.service import http as http_module
from repro.service import router as router_module
from repro.service.cache import canonical_query_key
from repro.service.router import HashRing

QUERY = (
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3;"
)


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------
class TestHashRing:
    def test_owner_is_deterministic_across_rings(self):
        nodes = [f"replica-{i}" for i in range(5)]
        first = HashRing(nodes)
        second = HashRing(list(reversed(nodes)))
        keys = [f"key-{i}" for i in range(200)]
        assert [first.owner(k) for k in keys] == [second.owner(k) for k in keys]

    def test_candidates_start_with_owner_and_are_distinct(self):
        ring = HashRing(["replica-0", "replica-1", "replica-2"])
        candidates = ring.candidates("some-key")
        assert candidates[0] == ring.owner("some-key")
        assert sorted(candidates) == ["replica-0", "replica-1", "replica-2"]
        assert ring.candidates("some-key", count=2) == candidates[:2]

    def test_remove_only_remaps_the_removed_nodes_keys(self):
        """The consistent-hashing contract: keys owned by survivors stay put."""
        ring = HashRing([f"replica-{i}" for i in range(4)])
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("replica-2")
        for key in keys:
            if before[key] != "replica-2":
                assert ring.owner(key) == before[key]
            else:
                assert ring.owner(key) != "replica-2"

    def test_re_adding_restores_the_exact_key_range(self):
        ring = HashRing([f"replica-{i}" for i in range(4)])
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("replica-1")
        ring.add("replica-1")
        assert {k: ring.owner(k) for k in keys} == before

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing(["replica-0"])
        ring.add("replica-0")
        assert len(ring) == 1
        ring.remove("replica-9")
        ring.remove("replica-0")
        ring.remove("replica-0")
        assert len(ring) == 0
        assert ring.owner("anything") is None
        assert ring.candidates("anything") == []

    def test_virtual_nodes_validation(self):
        with pytest.raises(ServiceError):
            HashRing(virtual_nodes=0)

    def test_load_spreads_across_replicas(self):
        ring = HashRing([f"replica-{i}" for i in range(3)], virtual_nodes=64)
        owners = [ring.owner(f"key-{i}") for i in range(600)]
        counts = {node: owners.count(node) for node in ring.nodes}
        # With 64 vnodes the split is rough but nobody should starve.
        assert all(count > 60 for count in counts.values())


# ----------------------------------------------------------------------
# Router unit behaviour (no sockets: faults fire before any connect)
# ----------------------------------------------------------------------
def _no_sleep(_seconds):
    return None


class TestRouterUnit:
    def test_requires_replica_ids(self):
        with pytest.raises(ServiceError):
            Router([])
        with pytest.raises(ServiceError):
            Router(["replica-0", "replica-0"])

    def test_malformed_body_refused_locally(self):
        router = Router(["replica-0"], sleep=_no_sleep)
        routed = router.route_query(b"this is not json")
        assert routed.status == 400
        assert routed.replica_id is None
        assert routed.attempts == 0
        assert b"error" in routed.body

    @pytest.mark.parametrize(
        "body", [b'{"query": "\xff"}', b"\xff\xfe\x00"], ids=["utf8", "utf16"]
    )
    def test_undecodable_body_refused_locally(self, body):
        """Regression: bytes that do not decode escaped the router's 400
        path and killed its handler thread."""
        router = Router(["replica-0"], sleep=_no_sleep)
        routed = router.route_query(body)
        assert routed.status == 400
        assert routed.replica_id is None
        assert json.loads(routed.body)["error"]["type"] == "UnicodeDecodeError"

    def test_invalid_query_refused_locally(self):
        router = Router(["replica-0"], sleep=_no_sleep)
        routed = router.route_query(
            json.dumps({"query": "SELECT nope;"}).encode()
        )
        assert routed.status == 400
        assert routed.replica_id is None

    def test_no_addressed_replicas_is_unroutable(self):
        config = RouterConfig(probe_interval_seconds=0.25)
        router = Router(["replica-0"], config, sleep=_no_sleep)
        with pytest.raises(NoReplicasAvailableError) as excinfo:
            router.forward("some-key", "GET", "/schema")
        assert excinfo.value.retry_after_seconds == pytest.approx(0.25)
        assert router.stats()["router"]["unroutable"] == 1

    def test_breaker_opens_and_hints_retry_after(self):
        """Repeated connect failures open the breaker; the 503 hint is the
        soonest half-open time, and a respawn installs a fresh breaker."""
        now = [0.0]
        config = RouterConfig(
            breaker_threshold=2,
            breaker_reset_seconds=10.0,
            max_attempts=3,
            failover_backoff_seconds=0.0,
        )
        router = Router(
            ["replica-0"], config, clock=lambda: now[0], sleep=_no_sleep
        )
        router.set_replica_address("replica-0", "127.0.0.1", 1)
        rule = faultinject.FaultRule(
            point="router.connect", error=ConnectionRefusedError
        )
        with faultinject.inject(rule):
            for _ in range(2):
                with pytest.raises(NoReplicasAvailableError):
                    router.forward("some-key", "POST", "/query", body=b"{}")
            state = router.replicas["replica-0"]
            assert state.breaker.state == "open"
            assert state.failed == 2
            assert not state.healthy
            # Third call never reaches the wire: breaker-skipped.
            with pytest.raises(NoReplicasAvailableError) as excinfo:
                router.forward("some-key", "POST", "/query", body=b"{}")
        assert excinfo.value.attempted == 0
        assert 0 < excinfo.value.retry_after_seconds <= 10.0
        assert router.stats()["router"]["breaker_skips"] == 1
        # The supervisor reports a respawn: fresh closed breaker, healthy.
        router.set_replica_address("replica-0", "127.0.0.1", 2)
        state = router.replicas["replica-0"]
        assert state.breaker.state == "closed"
        assert state.healthy and state.generation == 2

    def test_probe_verdicts_steer_rotation(self):
        router = Router(["replica-0"], sleep=_no_sleep)
        router.set_replica_address("replica-0", "127.0.0.1", 1)
        router.record_probe("replica-0", "draining")
        state = router.replicas["replica-0"]
        assert state.draining and not state.healthy
        # A draining replica is skipped outright, not tried last.
        with pytest.raises(NoReplicasAvailableError) as excinfo:
            router.forward("some-key", "GET", "/schema")
        assert excinfo.value.attempted == 0
        router.record_probe("replica-0", "ok")
        assert state.healthy and not state.draining

    def test_quarantine_not_cleared_by_probe(self):
        router = Router(["replica-0"], sleep=_no_sleep)
        router.set_replica_address("replica-0", "127.0.0.1", 1)
        router.mark_replica_down("replica-0", quarantined=True)
        router.record_probe("replica-0", "ok")
        assert router.replicas["replica-0"].quarantined
        assert router.healthy_count() == 0  # probes never clear quarantine


# ----------------------------------------------------------------------
# Integration: real in-thread replicas behind the router
# ----------------------------------------------------------------------
class _Replica:
    """One in-thread QueryService + HTTP server, stoppable mid-test."""

    def __init__(self, network):
        self.service = QueryService.from_network(
            network, ServiceConfig(workers=2), strategy="baseline"
        )
        self.server = make_server(self.service)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        self.host, self.port = self.server.server_address[:2]
        self.stopped = False

    def stop(self):
        if self.stopped:
            return
        self.stopped = True
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10.0)

    def close(self):
        self.stop()
        self.service.close()


@pytest.fixture()
def fleet(figure1):
    """Two live replicas, a router wired to them, and the router's server."""
    replicas = {f"replica-{i}": _Replica(figure1) for i in range(2)}
    config = RouterConfig(
        probe_interval_seconds=0.1,
        probe_timeout_seconds=2.0,
        attempt_timeout_seconds=5.0,
        failover_backoff_seconds=0.0,
        breaker_threshold=3,
        breaker_reset_seconds=0.5,
    )
    router = Router(list(replicas), config)
    for replica_id, replica in replicas.items():
        router.set_replica_address(replica_id, replica.host, replica.port)
    server = make_router_server(router)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield host, port, router, replicas
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        for replica in replicas.values():
            replica.close()


def request(host, port, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=payload, headers=headers or {})
        response = connection.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read()),
        )
    finally:
        connection.close()


class TestRouterIntegration:
    def test_query_routes_and_sticks_to_the_key_owner(self, fleet):
        host, port, router, _ = fleet
        owner = router.ring.owner(canonical_query_key(QUERY))
        answered = set()
        for _ in range(4):
            status, headers, payload = request(
                host, port, "POST", "/query", body={"query": QUERY}
            )
            assert status == 200
            assert len(payload["result"]["outliers"]) <= 3
            answered.add(headers["X-Repro-Replica"])
        # Cache affinity: every repetition lands on the ring owner.
        assert answered == {owner}
        assert router.replicas[owner].completed == 4

    def test_failover_to_surviving_replica(self, fleet):
        host, port, router, replicas = fleet
        owner = router.ring.owner(canonical_query_key(QUERY))
        other = next(rid for rid in replicas if rid != owner)
        replicas[owner].stop()
        status, headers, _ = request(
            host, port, "POST", "/query", body={"query": QUERY}
        )
        assert status == 200
        assert headers["X-Repro-Replica"] == other
        stats = router.stats()["router"]
        assert stats["failovers"] >= 1
        assert not router.replicas[owner].healthy  # passive detection

    def test_all_replicas_down_is_503_with_retry_after(self, fleet):
        host, port, router, replicas = fleet
        for replica in replicas.values():
            replica.stop()
        status, headers, payload = request(
            host, port, "POST", "/query", body={"query": QUERY}
        )
        assert status == 503
        assert payload["error"]["type"] == "NoReplicasAvailableError"
        assert float(headers["Retry-After"]) > 0
        assert router.stats()["router"]["unroutable"] == 1

    def test_shed_429_passes_through_without_breaker_damage(self, fleet):
        """An admission shed is the replica *working*: the 429 and its
        Retry-After reach the client, and the breaker records a success."""
        host, port, router, _ = fleet
        owner = router.ring.owner(canonical_query_key(QUERY))
        rule = faultinject.FaultRule(point="service.enqueue", times=1)
        with faultinject.inject(rule):
            status, headers, payload = request(
                host, port, "POST", "/query", body={"query": QUERY}
            )
        assert status == 429
        assert payload["error"]["type"] == "ServiceOverloadedError"
        assert float(headers["Retry-After"]) > 0
        state = router.replicas[owner]
        assert state.breaker.state == "closed"
        assert state.failed == 0
        assert router.stats()["router"]["sheds_forwarded"] == 1

    def test_draining_replica_leaves_rotation_before_dying(self, fleet):
        host, port, router, replicas = fleet
        owner = router.ring.owner(canonical_query_key(QUERY))
        other = next(rid for rid in replicas if rid != owner)
        prober = HealthProber(router)
        replicas[owner].service.begin_drain()
        verdicts = prober.probe_once()
        assert verdicts[owner] == "draining"
        assert verdicts[other] == "ok"
        assert router.replicas[owner].draining
        # Fresh keys steer around the draining owner while its socket is
        # still up.
        status, headers, _ = request(
            host, port, "POST", "/query", body={"query": QUERY}
        )
        assert status == 200
        assert headers["X-Repro-Replica"] == other

    def test_injected_connect_fault_fails_over(self, fleet):
        host, port, router, _ = fleet
        owner = router.ring.owner(canonical_query_key(QUERY))
        other = next(
            rid for rid in router.replicas if rid != owner
        )
        rule = faultinject.FaultRule(
            point="router.connect", times=1, error=ConnectionRefusedError
        )
        with faultinject.inject(rule) as injector:
            status, headers, _ = request(
                host, port, "POST", "/query", body={"query": QUERY}
            )
        assert status == 200
        assert headers["X-Repro-Replica"] == other
        assert injector.fired["router.connect"] == 1

    def test_injected_mid_body_disconnect_fails_over(self, fleet):
        """A tear after the request was sent (router.recv) must fail over
        exactly like a refused connect."""
        host, port, router, _ = fleet
        owner = router.ring.owner(canonical_query_key(QUERY))
        rule = faultinject.FaultRule(
            point="router.recv", times=1, error=ConnectionResetError
        )
        with faultinject.inject(rule) as injector:
            status, headers, _ = request(
                host, port, "POST", "/query", body={"query": QUERY}
            )
        assert status == 200
        assert headers["X-Repro-Replica"] != owner
        assert injector.fired["router.recv"] == 1
        assert router.replicas[owner].failed == 1

    def test_injected_latency_stalls_then_succeeds(self, fleet):
        """A delay rule models a slow replica: the call stalls (via the
        injector's injectable sleep — zero wall time here) then proceeds."""
        host, port, router, _ = fleet
        owner = router.ring.owner(canonical_query_key(QUERY))
        stalls = []
        rule = faultinject.FaultRule(
            point="router.send", times=1, delay_seconds=7.5
        )
        with faultinject.inject(rule) as injector:
            injector.sleep = stalls.append
            status, headers, _ = request(
                host, port, "POST", "/query", body={"query": QUERY}
            )
        assert status == 200
        assert headers["X-Repro-Replica"] == owner  # no failover needed
        assert stalls == [7.5]

    def test_router_healthz_degrades_with_the_fleet(self, fleet):
        host, port, router, replicas = fleet
        status, _, payload = request(host, port, "GET", "/healthz")
        assert (status, payload["status"]) == (200, "ok")
        assert payload["healthy_replicas"] == 2
        # One replica down: still serving (200), but visibly degraded.
        router.mark_replica_down("replica-0")
        status, _, payload = request(host, port, "GET", "/healthz")
        assert (status, payload["status"]) == (200, "degraded")
        assert payload["healthy_replicas"] == 1
        router.mark_replica_down("replica-1")
        status, _, payload = request(host, port, "GET", "/healthz")
        assert (status, payload["status"]) == (503, "unavailable")

    def test_stats_replicas_and_schema_endpoints(self, fleet):
        host, port, _, _ = fleet
        status, _, stats = request(host, port, "GET", "/stats")
        assert status == 200
        assert stats["router"]["replicas"] == 2
        assert len(stats["per_replica"]) == 2
        status, _, payload = request(host, port, "GET", "/replicas")
        assert status == 200
        assert {row["replica_id"] for row in payload["replicas"]} == {
            "replica-0",
            "replica-1",
        }
        status, headers, schema = request(host, port, "GET", "/schema")
        assert status == 200
        assert "author" in schema["vertex_types"]
        assert "X-Repro-Replica" in headers  # proxied, not answered locally
        status, _, _ = request(host, port, "GET", "/nope")
        assert status == 404

    def test_every_local_body_decodes_as_json_dumps_would(self, fleet, monkeypatch):
        """The router's own bodies — /healthz, /stats, /replicas and its
        local errors — change bytes under the reply encoder, never what a
        client decodes from them."""
        host, port, _, _ = fleet
        written = []
        encode = http_module.encode_body

        def recording(payload):
            body = encode(payload)
            written.append((payload, body))
            return body

        monkeypatch.setattr(http_module, "encode_body", recording)
        monkeypatch.setattr(router_module, "encode_body", recording)
        requests = [
            ("GET", "/healthz", None),
            ("GET", "/stats", None),
            ("GET", "/replicas", None),
            ("POST", "/query", b"{not json"),
            ("POST", "/query", b'{"query": "\xff"}'),
            ("POST", "/query", json.dumps({"query": "FIND Zoë;"}).encode()),
            ("GET", "/nope", None),
        ]
        statuses = []
        for method, path, body in requests:
            connection = http.client.HTTPConnection(host, port, timeout=10.0)
            try:
                connection.request(method, path, body=body)
                response = connection.getresponse()
                statuses.append(response.status)
                response.read()
            finally:
                connection.close()
        assert statuses == [200, 200, 200, 400, 400, 400, 404]
        assert len(written) == len(requests)
        for payload, body in written:
            assert isinstance(body, bytes)
            assert json.loads(body) == json.loads(json.dumps(payload))
