"""A JSON/HTTP frontend over :class:`QueryService`.

Endpoints::

    POST /query        {"query": "FIND OUTLIERS ... TOP 5;"}
                       -> 200 {"result": {...}, "cached": bool, "elapsed_ms": f}
                       -> 400 malformed body / query syntax or semantics
                       -> 429 shed by admission control (Retry-After header)
                       -> 503 service shut down
                       -> 504 per-request deadline exceeded
    GET  /healthz      -> 200 {"status": "ok", ...} while serving
                       -> 503 {"status": "draining"} once a graceful drain
                          has begun (readiness gate: the replica router
                          pulls the replica from rotation before its
                          queue empties and the socket dies)
                       -> 503 {"status": "closed"} after shutdown
    GET  /stats        -> 200 the QueryService.stats() snapshot
    GET  /schema       -> 200 vertex and edge types of the served network

Built on :class:`http.server.ThreadingHTTPServer`.  Handler threads only
*wait* on service futures; execution concurrency stays bounded by the
service's worker pool, and overload surfaces as fast typed 429s rather than
connection pileups.

Bodies are encoded by ``orjson``, the one runtime dependency the serving
layer adds to numpy/scipy/networkx.  A venue-wide reply carries ~2,000
doubles, and the stdlib encoder spent a third of such a request formatting
them; orjson encodes the same replies ~9x faster.  The bytes are compact
(no spaces after separators) and non-ASCII text is raw UTF-8 rather than
``\\u`` escapes; what a client decodes is what ``json.dumps`` would have
produced, except that a non-finite float decodes as ``null`` (no built-in
measure emits one).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import orjson

from repro.exceptions import (
    DeadlineExceededError,
    QueryError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerCrashedError,
)
from repro.service.keys import BODY_ERRORS, extract_query_text
from repro.service.service import QueryService

__all__ = [
    "CountingHTTPServer",
    "JSONRequestHandler",
    "ServiceHTTPServer",
    "encode_body",
    "make_server",
]

#: Cap on accepted request bodies; an outlier query is a few hundred bytes,
#: so anything beyond this is a client error, not a query.
MAX_BODY_BYTES = 1 << 20


class _OrjsonEncoder(json.JSONEncoder):
    """A :class:`json.JSONEncoder` whose ``encode`` is ``orjson.dumps``.

    Going through ``json.dumps(payload, cls=...)`` keeps the module's
    ``json.dumps`` the one call every body passes through, so wrapping
    that name observes every encode.
    """

    def encode(self, o) -> bytes:
        return orjson.dumps(o)


def encode_body(payload: dict) -> bytes:
    """The UTF-8 JSON body both front doors send for ``payload``."""
    return json.dumps(payload, cls=_OrjsonEncoder)


class CountingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that counts the requests it has answered.

    ``served_count`` tracks completed HTTP requests; when ``max_requests``
    is set (smoke tests), the server shuts itself down after that many.
    The replica frontend below and the router's
    (:class:`repro.service.router.RouterHTTPServer`) are both this.
    """

    daemon_threads = True

    def __init__(self, address, handler, *, max_requests: int | None = None):
        super().__init__(address, handler)
        self.max_requests = max_requests
        self.served_count = 0
        self._count_lock = threading.Lock()

    def note_request_served(self) -> None:
        """Count one finished request; trigger shutdown at ``max_requests``."""
        with self._count_lock:
            self.served_count += 1
            limit_hit = (
                self.max_requests is not None
                and self.served_count >= self.max_requests
            )
        if limit_hit:
            # shutdown() blocks until serve_forever exits, so it must not
            # run on a handler thread that serve_forever is waiting on.
            threading.Thread(target=self.shutdown, daemon=True).start()


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Plumbing both frontends share: replies, error envelope, body cap."""

    server: CountingHTTPServer
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging; /stats is the observability
        surface."""

    def _send_raw(self, status: int, body: bytes, *, headers=None) -> None:
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.server.note_request_served()

    def _send_json(self, status: int, payload: dict, *, headers=None) -> None:
        self._send_raw(
            status,
            encode_body(payload),
            headers={"Content-Type": "application/json", **(headers or {})},
        )

    def _error(self, status: int, error: BaseException, *, headers=None) -> None:
        self._send_json(
            status,
            {"error": {"type": type(error).__name__, "message": str(error)}},
            headers=headers,
        )

    def _not_found(self) -> None:
        self._send_json(
            404, {"error": {"type": "NotFound", "message": self.path}}
        )

    def _read_body(self) -> bytes | None:
        """The request body — or ``None``, having answered 400, when its
        declared length is malformed or over :data:`MAX_BODY_BYTES`."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._error(400, ValueError("invalid or oversized request body"))
            return None
        return self.rfile.read(length)


class ServiceHTTPServer(CountingHTTPServer):
    """A :class:`CountingHTTPServer` bound to one :class:`QueryService`."""

    def __init__(self, address, service: QueryService, *, max_requests=None):
        super().__init__(address, _Handler, max_requests=max_requests)
        self.service = service


class _Handler(JSONRequestHandler):
    """Routes the four endpoints; all bodies are JSON documents."""

    server: ServiceHTTPServer

    # -- GET -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        service = self.server.service
        if self.path == "/healthz":
            # Liveness vs readiness: the process is alive (we are
            # answering), but a draining or closed service must not
            # receive new queries — 503 tells the router to remove this
            # replica from rotation while its queue finishes.
            if service.closed:
                status_code, status = 503, "closed"
            elif service.draining:
                status_code, status = 503, "draining"
            else:
                status_code, status = 200, "ok"
            payload = {
                "status": status,
                "engine": service.handle.fingerprint,
                "network_version": service.handle.version,
                "backend": service.config.backend,
                "workers": service.config.workers,
                "live_workers": service.backend.live_workers(),
                # Index metadata rides the health probe so the router can
                # surface per-replica index freshness without extra calls.
                "index": service.handle.index_metadata(),
            }
            if service.reindexer is not None:
                reindexer = service.reindexer
                payload["index"]["reindexes"] = reindexer.reindexes
                payload["index"]["last_reindex_unix"] = (
                    reindexer.last_reindex_unix
                )
            self._send_json(status_code, payload)
        elif self.path == "/stats":
            self._send_json(200, service.stats())
        elif self.path == "/schema":
            schema = service.handle.network.schema
            network = service.handle.network
            self._send_json(
                200,
                {
                    "vertex_types": {
                        vertex_type: network.num_vertices(vertex_type)
                        for vertex_type in sorted(schema.vertex_types)
                    },
                    "edge_types": sorted(
                        f"{edge.source}-{edge.target}"
                        for edge in schema.edge_types
                    ),
                },
            )
        else:
            self._not_found()

    # -- POST ------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path != "/query":
            self._not_found()
            return
        body = self._read_body()
        if body is None:
            return
        try:
            query_text = extract_query_text(body)
        except BODY_ERRORS as error:
            self._error(400, error)
            return

        service = self.server.service
        started = time.monotonic()
        try:
            future = service.submit(query_text)
            # Set only on the result-cache hit path; `future.done()` would
            # misreport fast fresh queries that resolve before we look.
            cached = getattr(future, "from_cache", False)
            result = service.result(future)
        except ServiceOverloadedError as error:
            retry_after = error.retry_after_seconds or 0.1
            self._error(429, error, headers={"Retry-After": f"{retry_after:.3f}"})
            return
        except ServiceClosedError as error:
            self._error(503, error)
            return
        except DeadlineExceededError as error:
            self._error(504, error)
            return
        except WorkerCrashedError as error:
            # The query's worker process died (twice): a server-side fault,
            # not a client error.
            self._error(500, error)
            return
        except QueryError as error:
            self._error(400, error)
            return
        except ReproError as error:
            # Anything else the library raises on purpose is an unservable
            # query (empty candidate set, dead anchor, ...): a client error.
            self._error(422, error)
            return
        elapsed_ms = (time.monotonic() - started) * 1e3
        self._send_json(
            200,
            {
                "result": result.to_dict(),
                "cached": cached,
                "elapsed_ms": elapsed_ms,
            },
        )


def make_server(
    service: QueryService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_requests: int | None = None,
) -> ServiceHTTPServer:
    """Bind (but do not start) the HTTP frontend for ``service``.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address``.  Call ``serve_forever()`` to run, and
    ``shutdown()`` from another thread to stop.
    """
    return ServiceHTTPServer((host, port), service, max_requests=max_requests)
