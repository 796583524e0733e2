"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch a single base class at an API
boundary.  Sub-classes partition errors by subsystem: schema/graph
construction, meta-path algebra, query parsing and validation, and query
execution.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "NetworkError",
    "VertexNotFoundError",
    "MetaPathError",
    "QueryError",
    "QuerySyntaxError",
    "QuerySemanticError",
    "ExecutionError",
    "MeasureError",
    "UnsupportedSchemaError",
    "DeadlineExceededError",
    "InexactCountError",
    "ResourceLimitError",
    "CircuitOpenError",
    "TransientFaultError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "WorkerCrashedError",
    "DegradedResultWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A network schema is malformed or an operation violates the schema.

    Examples: declaring an edge type between undeclared vertex types, or
    registering the same vertex type twice with conflicting metadata.
    """


class NetworkError(ReproError):
    """An operation on a heterogeneous information network is invalid.

    Examples: adding an edge whose endpoints were never added, or adding a
    vertex whose type is not in the schema.
    """


class VertexNotFoundError(NetworkError, KeyError):
    """A vertex lookup by (type, name) or id failed.

    Inherits :class:`KeyError` so mapping-style call sites behave naturally.
    """

    def __init__(self, message: str):
        # Bypass KeyError.__str__ which repr()s its single argument.
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.message


class MetaPathError(ReproError):
    """A meta-path is malformed or incompatible with the schema.

    Examples: concatenating paths whose junction types differ, or
    materializing a meta-path that traverses a non-existent edge type.
    """


class QueryError(ReproError):
    """Base class for errors in the outlier query language."""


class QuerySyntaxError(QueryError):
    """The query text could not be tokenized or parsed.

    Carries the offending position so tools can point at the error.
    """

    def __init__(self, message: str, *, position: int | None = None, line: int | None = None):
        super().__init__(message)
        self.position = position
        self.line = line


class QuerySemanticError(QueryError):
    """The query parsed but is invalid against the network schema.

    Examples: a feature meta-path that does not start at the candidate
    type, a vertex type that does not exist, or an empty candidate set
    expression.
    """


class ExecutionError(ReproError):
    """Query execution failed after parsing and validation succeeded."""


class MeasureError(ReproError):
    """An outlierness measure was misconfigured or given invalid input."""


class UnsupportedSchemaError(MeasureError):
    """A zoo detector was asked to score a network its schema cannot serve.

    The detector-zoo contract (:mod:`repro.zoo`) requires every detector to
    refuse an incompatible scenario *gracefully*: a query whose member type
    or feature meta-path does not exist in the fitted network's schema
    raises this typed error instead of an arbitrary ``KeyError`` deep inside
    materialization.  Subclasses :class:`MeasureError` so existing
    measure-level handlers keep catching it.
    """

    def __init__(
        self,
        message: str,
        *,
        detector: str | None = None,
        schema_detail: str | None = None,
    ):
        super().__init__(message)
        self.detector = detector
        self.schema_detail = schema_detail


class DeadlineExceededError(ExecutionError):
    """A query ran past its time budget (cooperative deadline enforcement).

    Raised from materialization and scoring loops when the per-query
    :class:`~repro.engine.resilience.Deadline` expires.  Carries the budget
    and the elapsed time at the moment the overrun was detected so callers
    (and tests) can verify enforcement latency.
    """

    def __init__(
        self,
        message: str,
        *,
        budget_seconds: float | None = None,
        elapsed_seconds: float | None = None,
    ):
        super().__init__(message)
        self.budget_seconds = budget_seconds
        self.elapsed_seconds = elapsed_seconds


class InexactCountError(ExecutionError):
    """A path count reached 2**53, past which float64 holds no exact integer.

    Raised from materialization once a row, a visibility or a numerator of
    the sums route reaches the bound, naming the path, instead of answering
    with a rounded count.  The fault is in the data, not in the index an
    execution serves from, so a degradation ladder re-raises it rather than
    demoting: every rung forms the same counts.
    """


class ResourceLimitError(ExecutionError):
    """An operation was refused because it would exceed a resource guardrail.

    Example: materializing a PM index whose estimated size exceeds the
    configured ``max_memory_mb``.  Carries the estimate and the limit in
    bytes when known.
    """

    def __init__(
        self,
        message: str,
        *,
        estimated_bytes: int | None = None,
        limit_bytes: int | None = None,
    ):
        super().__init__(message)
        self.estimated_bytes = estimated_bytes
        self.limit_bytes = limit_bytes


class CircuitOpenError(ExecutionError):
    """A circuit breaker is open: the guarded operation is short-circuited.

    After N consecutive failures of a guarded operation (index construction,
    typically) the breaker refuses further attempts until its reset window
    elapses, so a flapping dependency cannot consume every query's budget.
    """


class TransientFaultError(ExecutionError):
    """A transient, retryable failure (I/O hiccup, injected fault, ...).

    The resilience layer's retry-with-backoff treats this class (and only
    the classes it is configured with) as retryable; anything else
    propagates immediately.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the long-lived query service layer.

    Service errors are *not* :class:`ExecutionError` subclasses: they
    describe the state of the service wrapper (full queue, shut down), not a
    failure of query execution itself.
    """


class ServiceOverloadedError(ServiceError):
    """The service shed a request because its admission queue is full.

    Load shedding is the service's backpressure mechanism: rather than
    queueing unboundedly (and blowing latency for everyone), a request that
    arrives when ``queue_depth`` requests are already waiting is refused
    with this typed error.  ``retry_after_seconds`` is the service's
    estimate of when capacity will free up — the HTTP frontend maps it to a
    ``Retry-After`` header on a 429 response.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after_seconds: float | None = None,
        queued: int | None = None,
        capacity: int | None = None,
    ):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds
        self.queued = queued
        self.capacity = capacity


class ServiceClosedError(ServiceError):
    """A request was submitted to a service that has been shut down.

    Raised by :meth:`~repro.service.QueryService.submit` after
    :meth:`~repro.service.QueryService.close`; in-flight requests accepted
    before the close still complete (graceful drain).
    """


class WorkerCrashedError(ServiceError):
    """A worker process died while (re)executing this request.

    The process backend replaces crashed workers and resubmits their
    outstanding queries once (queries are read-only, so a retry is safe);
    this error surfaces only when the retry *also* lost its worker —
    evidence the query itself is killing workers, not a transient fault.
    """


class DegradedResultWarning(UserWarning):
    """A query succeeded but on a degraded path (fallback strategy, partial).

    This is a :class:`UserWarning`, not a :class:`ReproError`: the query
    *did* return a usable ranking.  The accompanying
    :class:`~repro.core.results.OutlierResult` carries ``degraded=True`` and
    a ``degradation_reason`` explaining which rung of the ladder answered.
    """
