"""Tests for :mod:`repro.service.http` — the JSON frontend."""

import http.client
import json
import re
import socket
import threading
from contextlib import contextmanager

import pytest

from repro import faultinject
from repro.engine.resilience import ResiliencePolicy
from repro.exceptions import ServiceOverloadedError, WorkerCrashedError
from repro.service import QueryService, ServiceConfig, make_server
from repro.service import http as http_module
from tests.service.test_worker_lifecycle import retired_backend

QUERY = (
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3;"
)
FEATURES_QUERY = (
    "FIND OUTLIERS FROM author "
    "JUDGED BY author.paper.venue : 2.0, author.paper.author TOP 3;"
)


@contextmanager
def serving(network, config=None, **engine):
    """A live server on an ephemeral port; yields (host, port, service)."""
    engine.setdefault("strategy", "baseline")
    service = QueryService.from_network(
        network, config or ServiceConfig(workers=2), **engine
    )
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield host, port, service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        service.close()


@pytest.fixture()
def served(figure1):
    with serving(figure1) as live:
        yield live


def request(host, port, method, path, body=None, headers=None):
    """``body`` is sent as JSON, or as-is when it is already bytes."""
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        payload = body
        if body is not None and not isinstance(body, bytes):
            payload = json.dumps(body).encode("utf-8")
        connection.request(method, path, body=payload, headers=headers or {})
        response = connection.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read()),
        )
    finally:
        connection.close()


class TestGetEndpoints:
    def test_healthz(self, served):
        host, port, service = served
        status, _, payload = request(host, port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["engine"] == service.handle.fingerprint

    def test_healthz_draining_readiness(self, served):
        """Liveness vs readiness: once a drain begins the process still
        answers (alive) but reports 503 draining and sheds new queries —
        a load balancer's cue to stop sending before the socket dies."""
        host, port, service = served
        service.begin_drain()
        status, _, payload = request(host, port, "GET", "/healthz")
        assert status == 503
        assert payload["status"] == "draining"
        status, _, payload = request(
            host, port, "POST", "/query", body={"query": QUERY}
        )
        assert status == 503
        assert payload["error"]["type"] == "ServiceClosedError"

    def test_stats(self, served):
        host, port, _ = served
        status, _, payload = request(host, port, "GET", "/stats")
        assert status == 200
        assert set(payload) == {
            "service",
            "admission",
            "cache",
            "engine",
            "backend",
        }

    def test_schema(self, served):
        host, port, _ = served
        status, _, payload = request(host, port, "GET", "/schema")
        assert status == 200
        assert set(payload["vertex_types"]) == {
            "author", "paper", "venue", "term"
        }
        assert "author-paper" in payload["edge_types"]

    def test_unknown_path_404(self, served):
        host, port, _ = served
        status, _, payload = request(host, port, "GET", "/nope")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"


class TestQueryEndpoint:
    def test_query_success_and_cached_flag(self, served):
        host, port, _ = served
        status, _, first = request(
            host, port, "POST", "/query", body={"query": QUERY}
        )
        assert status == 200
        assert first["cached"] is False
        assert len(first["result"]["outliers"]) == 3
        assert first["result"]["measure"] == "netout"
        status, _, second = request(
            host, port, "POST", "/query", body={"query": QUERY}
        )
        assert status == 200
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_post_unknown_path_404(self, served):
        host, port, _ = served
        status, _, _ = request(host, port, "POST", "/nope", body={})
        assert status == 404

    def test_malformed_json_400(self, served):
        host, port, _ = served
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.request("POST", "/query", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "body", [b'{"query": "\xff"}', b"\xff\xfe\x00"], ids=["utf8", "utf16"]
    )
    def test_undecodable_body_400(self, served, body):
        """Regression: bytes that do not decode killed the handler thread
        and the client saw the connection drop with no response."""
        host, port, _ = served
        status, _, payload = request(host, port, "POST", "/query", body)
        assert status == 400
        assert payload["error"]["type"] == "UnicodeDecodeError"

    def test_missing_query_field_400(self, served):
        host, port, _ = served
        status, _, payload = request(host, port, "POST", "/query", body={})
        assert status == 400
        assert "error" in payload

    def test_non_string_query_400(self, served):
        host, port, _ = served
        status, _, _ = request(
            host, port, "POST", "/query", body={"query": 7}
        )
        assert status == 400

    def test_syntax_error_400(self, served):
        host, port, _ = served
        status, _, payload = request(
            host, port, "POST", "/query", body={"query": "FIND gibberish"}
        )
        assert status == 400
        assert payload["error"]["type"] == "QuerySyntaxError"

    def test_non_ascii_digit_400(self, served):
        """Regression: "TOP ²" reached ``int()`` unguarded, killed the
        handler thread, and the client saw the connection drop."""
        host, port, _ = served
        body = {"query": QUERY.replace("TOP 3", "TOP ²")}
        status, _, payload = request(host, port, "POST", "/query", body=body)
        assert status == 400
        assert payload["error"]["type"] == "QuerySyntaxError"

    @pytest.mark.parametrize(
        "old, new",
        [
            ("venue TOP 3", "venue : " + "9" * 400 + " TOP 3"),
            ("TOP 3", "TOP " + "9" * 5000),
        ],
        ids=["inf-weight", "top-digit-limit"],
    )
    def test_overflowing_literal_400(self, served, old, new):
        """Regression: an infinite weight raised OverflowError while the
        key was formatted, and a 5,000-digit TOP a ValueError; neither was
        a QueryError, so the connection dropped unanswered."""
        host, port, _ = served
        body = {"query": QUERY.replace(old, new)}
        status, _, payload = request(host, port, "POST", "/query", body=body)
        assert status == 400
        assert payload["error"]["type"] == "QuerySyntaxError"

    def test_weight_below_1e_4_is_answered(self, served):
        """Regression: the canonical text spelled 0.00000015 as 1.5e-07,
        and the re-parse of that text answered 400 about a '-' the client
        never sent."""
        host, port, _ = served
        body = {"query": FEATURES_QUERY.replace(": 2.0", ": 0.00000015")}
        status, _, payload = request(host, port, "POST", "/query", body=body)
        assert status == 200
        assert len(payload["result"]["outliers"]) == 3

    def test_unservable_query_422(self, served):
        host, port, _ = served
        ghost = QUERY.replace("Zoe", "Ghost")
        status, _, payload = request(
            host, port, "POST", "/query", body={"query": ghost}
        )
        assert status == 422
        assert payload["error"]["type"] == "VertexNotFoundError"

    def test_overload_429_with_retry_after(self, served):
        """Deterministic shed: the ``service.enqueue`` fault point stalls the
        admission queue, so the frontend must answer 429 + Retry-After."""
        host, port, _ = served
        rule = faultinject.FaultRule(point="service.enqueue")
        with faultinject.inject(rule):
            status, headers, payload = request(
                host, port, "POST", "/query", body={"query": QUERY}
            )
        assert status == 429
        assert payload["error"]["type"] == "ServiceOverloadedError"
        assert float(headers["Retry-After"]) > 0

    def test_closed_service_503(self, served):
        host, port, service = served
        service.close()
        status, _, payload = request(
            host, port, "POST", "/query", body={"query": QUERY}
        )
        assert status == 503
        assert payload["error"]["type"] == "ServiceClosedError"


def exchange(host, port, raw: bytes) -> list[int]:
    """Send ``raw`` on one socket, half-close it, and return the status of
    every response the server wrote before it closed the connection."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return [int(code) for code in re.findall(rb"HTTP/1\.1 (\d{3}) ", received)]


class TestUnreadBodyClosesTheConnection:
    """Regression: a reply sent without reading the declared body left the
    body on a keep-alive socket, where it was parsed as the next request."""

    def test_post_to_unknown_path_closes(self, served):
        host, port, _ = served
        raw = (
            b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 14\r\n\r\n"
            b'{"query": "x"}'
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        # Unfixed, the server answered 404, then 400 "Bad request syntax"
        # for the body glued to the GET line.
        assert exchange(host, port, raw) == [404]
        assert request(host, port, "GET", "/healthz")[0] == 200

    def test_refused_length_does_not_smuggle_the_next_request(self, served):
        host, port, _ = served
        raw = (
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 2000000\r\n\r\n"
            b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        # Unfixed, the server answered 400, then the smuggled GET with 200.
        assert exchange(host, port, raw) == [400]

    def test_get_body_is_consumed_not_parsed_as_a_request(self, served):
        host, port, _ = served
        raw = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 14\r\n\r\n"
            b'{"query": "x"}'
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        # Unfixed, the server answered 200, then 400 for the body glued to
        # the GET line.
        assert exchange(host, port, raw) == [200, 200]

    def test_a_read_body_keeps_the_connection_alive(self, served):
        host, port, _ = served
        body = json.dumps({"query": QUERY}).encode()
        raw = (
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
            + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert exchange(host, port, raw) == [200, 200]


class TestRetiredWorkers:
    def test_no_live_worker_is_500_and_not_ready(self, figure1):
        """Every process worker retired: a query is a server-side fault
        (500, not a 422) and /healthz reports not ready (503
        "no-workers")."""
        with serving(figure1) as (host, port, service):
            service.backend.close()
            service.backend = retired_backend(service.handle)
            status, _, payload = request(
                host, port, "POST", "/query", {"query": QUERY}
            )
            assert status == 500
            assert payload["error"]["type"] == "WorkerCrashedError"
            status, _, payload = request(host, port, "GET", "/healthz")
            assert (status, payload["status"]) == (503, "no-workers")
            assert payload["live_workers"] == 0


class TestMaxRequests:
    def test_server_stops_after_limit(self, figure1):
        service = QueryService.from_network(
            figure1, ServiceConfig(workers=1), strategy="baseline"
        )
        server = make_server(service, max_requests=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            request(host, port, "GET", "/healthz")
            request(host, port, "GET", "/healthz")
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert server.served_count == 2
        finally:
            server.server_close()
            service.close()


# ----------------------------------------------------------------------
# Wire equivalence: what a client decodes is what json.dumps would send
# ----------------------------------------------------------------------
def _post(query, status=200):
    return ("POST", "/query", json.dumps({"query": query}).encode("utf-8"), status)


GETS = [("GET", path, None, 200) for path in ("/healthz", "/stats", "/schema")]


def _adaptive(backend):
    return ServiceConfig(
        workers=1,
        backend=backend,
        adaptive=True,
        reindex_interval_seconds=3600.0,
        reindex_min_queries=1,
        subpath_cache_mb=8.0,
    )


def _reindex(service, _monkeypatch):
    """Re-plan from the query just served, so /healthz and /stats report
    a landed swap."""
    assert service.reindexer.run_once()


def _submit_raises(error):
    def setup(service, monkeypatch):
        def submit(query_text):
            raise error

        monkeypatch.setattr(service, "submit", submit)

    return setup


#: case -> (serving() arguments, steps).  A step is a request
#: ``(method, path, body, expected status)`` or a callable
#: ``(service, monkeypatch)`` run between requests.  Together the cases
#: make the server write every body it can: results fresh, cached, with
#: feature scores and degraded; the GET endpoints on both backends with
#: the adaptive re-indexer on; and each 4xx/5xx envelope.
WIRE_CASES = {
    "query": ({}, [_post(QUERY), _post(QUERY), _post(FEATURES_QUERY)]),
    "degraded": (
        {"strategy": "pm", "resilience": ResiliencePolicy(max_memory_mb=1e-6)},
        [_post(QUERY)],
    ),
    "thread-adaptive": (
        {"config": _adaptive("thread"), "strategy": "spm"},
        [_post(QUERY), _reindex, *GETS],
    ),
    "process-adaptive": (
        {"config": _adaptive("process"), "strategy": "spm"},
        [_post(QUERY), _reindex, *GETS],
    ),
    "client-errors": (
        {},
        [
            ("POST", "/query", b"{not json", 400),
            ("POST", "/query", b"{}", 400),
            _post("FIND gibberish", 400),
            _post(QUERY.replace("Zoe", "Zoë 渡辺"), 422),
            ("GET", "/nope", None, 404),
            ("POST", "/nope", b"{}", 404),
        ],
    ),
    "shed": (
        {},
        [
            _submit_raises(ServiceOverloadedError("queue full", retry_after_seconds=0.5)),
            _post(QUERY, 429),
        ],
    ),
    "crashed": (
        {},
        [_submit_raises(WorkerCrashedError("worker died twice")), _post(QUERY, 500)],
    ),
    "closed": (
        {},
        [
            lambda service, _: service.close(),
            _post(QUERY, 503),
            ("GET", "/healthz", None, 503),
        ],
    ),
    "deadline": (
        {"config": ServiceConfig(workers=1, timeout_seconds=1e-9)},
        [_post(QUERY, 504)],
    ),
}


@pytest.mark.filterwarnings("ignore::repro.exceptions.DegradedResultWarning")
@pytest.mark.parametrize("case", list(WIRE_CASES))
def test_every_body_decodes_as_json_dumps_would(case, figure1, monkeypatch):
    """The reply encoder changes bytes (compact, raw UTF-8), never what a
    client decodes from them."""
    written = []
    encode = http_module.encode_body

    def recording(payload):
        body = encode(payload)
        written.append((payload, body))
        return body

    monkeypatch.setattr(http_module, "encode_body", recording)
    arguments, steps = WIRE_CASES[case]
    requests = [step for step in steps if not callable(step)]
    statuses = []
    with serving(figure1, **arguments) as (host, port, service):
        for step in steps:
            if callable(step):
                step(service, monkeypatch)
            else:
                statuses.append(request(host, port, *step[:3])[0])
    assert statuses == [step[3] for step in requests]
    assert len(written) == len(requests)
    for payload, body in written:
        assert isinstance(body, bytes)
        assert json.loads(body) == json.loads(json.dumps(payload))
