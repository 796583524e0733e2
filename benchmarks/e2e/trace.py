"""Spans recorded from outside the program, and the layer waterfall.

The benchmark may not edit ``src/``, so a layer is timed by replacing its
public callable with a wrapper that records a span around the call
(:func:`install`).  A span carries name, start, end, parent and request
id; spans stay in memory and are written out when the run ends.

Self time follows the usual rule — a span's duration minus the part of it
its children cover — extended across threads: at every instant of a
request the time belongs to the open span that started last.  Inside one
thread that *is* "duration minus child cover"; across the client, handler
and worker threads (which wait on each other, one request in flight) it
hands the time to whichever layer is actually running, and the self times
of a request add up to its ``client.request`` span exactly.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

__all__ = ["SPAN_NAMES", "Span", "Tracer", "install", "self_times"]

#: Every span the benchmark records, in stack order (outermost first).
SPAN_NAMES = (
    "client.request",
    "client.connect",
    "client.send",
    "client.receive",
    "http.request",
    "keys.extract_query_text",
    "service.submit",
    "keys.canonical_query_key",
    "parser.parse_query",
    "formatter.format_query",
    "cache.get",
    "cache.put",
    "admission.admit",
    "backend.submit",
    "handle.execute",
    "executor.execute",
    "semantics.validate_query",
    "evaluator.evaluate",
    "caching.neighbor_matrix",
    "strategies.neighbor_matrix",
    "materialize.materialize_segment",
    "measures.score",
    "results.from_scores",
    "results.to_dict",
    "http.json_encode",
)


class Span:
    """One timed call: name, start, end, parent span and request id."""

    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, end=None, parent=None, request=-1) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request


class Tracer:
    """Collects spans; one instance per traced cycle.

    A span's parent is the caller's innermost open span on the same thread,
    or — for the first span of a handler or worker thread — the span that
    started last and is still open anywhere: the one waiting for it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request_id = -1
        self._stacks = threading.local()
        self._open: list[Span] = []
        self._lock = threading.Lock()
        #: Rows and stored entries of the blocks the concrete strategy returned.
        self.strategy_rows = 0
        self.strategy_nnz = 0
        #: Size of every encoded HTTP body, without the digits of its
        #: ``elapsed_ms`` (a timing, so their number varies run to run).
        self.response_bytes: list[int] = []

    def start(self, name: str) -> Span:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), None, parent, self.request_id)
            self._open.append(span)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks.stack.pop()
        with self._lock:
            self._open.remove(span)

    @contextmanager
    def span(self, name: str):
        span = self.start(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, name: str, function):
        """``function`` with a ``name`` span around every call."""

        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def by_request(self) -> list[list[Span]]:
        """The spans of each request, its ``client.request`` root first."""
        groups: dict[int, list[Span]] = {}
        for span in self.spans:
            groups.setdefault(span.request, []).append(span)
        return [groups[request] for request in sorted(groups)]

    def write_jsonl(self, path) -> None:
        """One span per line: id, parent id, name, request, start, end."""
        ids = {id(span): number for number, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for number, span in enumerate(self.spans):
                record = {
                    "id": number,
                    "parent": None if span.parent is None else ids[id(span.parent)],
                    "name": span.name,
                    "request": span.request,
                    "start": span.start,
                    "end": span.end,
                }
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name over the spans of **one** request.

    ``spans[0]`` is the request's root; time outside it is dropped (a
    handler may still be returning when the client already has its reply).
    Each instant goes to the open span that started last, so on a properly
    nested tree this is duration minus child cover.
    """
    root_start, root_end = spans[0].start, spans[0].end
    events = []
    for order, span in enumerate(spans):
        start = max(span.start, root_start)
        end = root_end if span.end is None else min(span.end, root_end)
        if end > start:
            events.append((start, 1, order, span.name))
            events.append((end, 0, order, span.name))
    events.sort()
    totals: dict[str, float] = {}
    open_spans: dict[int, tuple[float, int, str]] = {}
    previous = root_start
    for moment, opening, order, name in events:
        if open_spans and moment > previous:
            owner = max(open_spans.values())[2]
            totals[owner] = totals.get(owner, 0.0) + (moment - previous)
        previous = moment
        if opening:
            open_spans[order] = (moment, order, name)
        else:
            del open_spans[order]
    return totals


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
class _JsonProxy:
    """Stands in for the ``json`` module inside ``repro.service.http``.

    The HTTP frontend encodes its response with ``json.dumps``; patching
    the real module would also time the client's own JSON work.
    """

    def __init__(self, module, dumps) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextmanager
def install(tracer: Tracer):
    """Wrap every traced callable for the duration of the ``with`` block.

    Functions imported by name are replaced in the namespace of each module
    that calls them; methods are replaced on their class.  Everything is
    restored on exit, so an untraced cycle can follow a traced one.
    """
    import repro.engine.executor as executor_module
    import repro.engine.strategies as strategies_module
    import repro.service.http as http_module
    import repro.service.keys as keys_module
    import repro.service.service as service_module
    from repro.core.measures import NetOutMeasure
    from repro.core.results import OutlierResult
    from repro.engine.caching import CachingStrategy
    from repro.engine.evaluator import SetEvaluator
    from repro.service.admission import AdmissionController
    from repro.service.backends import ThreadBackend
    from repro.service.cache import ResultCache
    from repro.service.handle import EngineHandle

    targets = [
        (http_module._Handler, "do_POST", "http.request"),
        (http_module, "extract_query_text", "keys.extract_query_text"),
        (service_module.QueryService, "submit", "service.submit"),
        (service_module, "canonical_query_key", "keys.canonical_query_key"),
        (keys_module, "parse_query", "parser.parse_query"),
        (executor_module, "parse_query", "parser.parse_query"),
        (keys_module, "format_query", "formatter.format_query"),
        (ResultCache, "get", "cache.get"),
        (ResultCache, "put", "cache.put"),
        (AdmissionController, "admit", "admission.admit"),
        (ThreadBackend, "submit", "backend.submit"),
        (EngineHandle, "execute", "handle.execute"),
        (executor_module.QueryExecutor, "execute", "executor.execute"),
        (executor_module, "validate_query", "semantics.validate_query"),
        (SetEvaluator, "evaluate", "evaluator.evaluate"),
        (strategies_module, "materialize_segment", "materialize.materialize_segment"),
        (NetOutMeasure, "score", "measures.score"),
        (OutlierResult, "to_dict", "results.to_dict"),
    ]
    saved = [(owner, attribute, owner.__dict__[attribute]) for owner, attribute, _ in targets]
    for owner, attribute, name in targets:
        setattr(owner, attribute, tracer.wrap(name, owner.__dict__[attribute]))

    # One method serves both the row-cache wrapper and the concrete
    # strategy behind it; the span is named after the receiver.
    base = strategies_module.MaterializationStrategy
    neighbor_matrix = base.__dict__["neighbor_matrix"]
    saved.append((base, "neighbor_matrix", neighbor_matrix))

    def traced_neighbor_matrix(self, *args, **kwargs):
        cached = isinstance(self, CachingStrategy)
        span = tracer.start(
            "caching.neighbor_matrix" if cached else "strategies.neighbor_matrix"
        )
        try:
            block = neighbor_matrix(self, *args, **kwargs)
        finally:
            tracer.end(span)
        if not cached:
            tracer.strategy_rows += block.shape[0]
            tracer.strategy_nnz += block.nnz
        return block

    base.neighbor_matrix = traced_neighbor_matrix

    from_scores = OutlierResult.__dict__["from_scores"]
    saved.append((OutlierResult, "from_scores", from_scores))
    OutlierResult.from_scores = classmethod(
        tracer.wrap("results.from_scores", from_scores.__func__)
    )

    real_json = http_module.json
    saved.append((http_module, "json", real_json))

    def traced_dumps(payload, **kwargs):
        span = tracer.start("http.json_encode")
        try:
            encoded = real_json.dumps(payload, **kwargs)
        finally:
            tracer.end(span)
        elapsed = payload.get("elapsed_ms") if isinstance(payload, dict) else None
        tracer.response_bytes.append(
            len(encoded) - (len(repr(elapsed)) if elapsed is not None else 0)
        )
        return encoded

    http_module.json = _JsonProxy(real_json, traced_dumps)
    try:
        yield tracer
    finally:
        for owner, attribute, original in saved:
            setattr(owner, attribute, original)
