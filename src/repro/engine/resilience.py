"""Resilient query execution: deadlines, retries, breakers, guardrails.

The paper's engine (§6) assumes index materialization and query evaluation
always succeed.  A production deployment cannot: index builds hit transient
I/O faults, meta-path matrices outgrow memory, and interactive callers need
bounded latency.  This module supplies the four resilience primitives the
engine composes:

* :class:`Deadline` — a cooperative per-query time budget, checked inside
  materialization and scoring loops via :func:`check_deadline`;
* :func:`retry_with_backoff` — exponential-backoff retry for transient
  index/cache failures;
* :class:`CircuitBreaker` — opens after N consecutive failures of a guarded
  operation (PM/SPM index construction) and short-circuits further attempts
  until a reset window elapses;
* :class:`ResourceGuard` plus the ``estimate_*`` helpers — refuse index
  builds whose estimated materialized size exceeds a memory budget.

:class:`FallbackStrategy` ties them into the **degradation ladder**:
PM → SPM → on-the-fly counting.  It is the one coverage strategy of
:mod:`repro.engine.strategies`, and a rung is only the index installed in
it: demotion builds the next rung's index under those guards and replaces
the installed one, once per failed rung however many requests saw it fail.
A query keeps its answer as long as *any* rung can produce neighbor
vectors; the result is then flagged ``degraded=True`` with an explicit
reason instead of hard-failing.

All time sources and sleeps are injectable so the resilience test suite is
deterministic (see ``tests/engine/test_resilience.py`` and
:mod:`repro.faultinject`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from scipy import sparse

from repro.engine.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.engine.index import MetaPathIndex, estimate_product_nnz
from repro.engine.strategies import (
    DEGRADATION_LADDER,
    Rung,
    _CoverageStrategy,
    build_index,
    strategy_name,
)
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    ExecutionError,
    InexactCountError,
    ResourceLimitError,
    TransientFaultError,
)
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.metapath.metapath import MetaPath
from repro.utils.sparsetools import INDEX_BYTES, POINTER_BYTES, VALUE_BYTES

__all__ = [
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "check_deadline",
    "retry_with_backoff",
    "CircuitBreaker",
    "ResourceGuard",
    "estimate_length2_nnz",
    "estimate_pm_index_bytes",
    "estimate_spm_index_bytes",
    "ResiliencePolicy",
    "FallbackStrategy",
    "DEGRADATION_LADDER",
]


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------
def retry_with_backoff(
    operation: Callable[[], object],
    *,
    attempts: int = 3,
    base_delay: float = 0.05,
    multiplier: float = 2.0,
    retryable: tuple[type[Exception], ...] = (TransientFaultError,),
    sleep: Callable[[float], None] = time.sleep,
    deadline: Deadline | None = None,
):
    """Run ``operation``, retrying transient failures with exponential backoff.

    Only exceptions in ``retryable`` are retried; anything else propagates
    immediately.  The last transient error propagates after ``attempts``
    tries.  When a ``deadline`` is given, it is checked before each backoff
    sleep so retries cannot silently eat a query's whole budget.

    ``sleep`` is injectable so tests run in zero wall time.
    """
    if attempts < 1:
        raise ExecutionError(f"retry attempts must be >= 1, got {attempts}")
    delay = base_delay
    for attempt in range(1, attempts + 1):
        try:
            return operation()
        except retryable:
            if attempt == attempts:
                raise
            if deadline is not None:
                deadline.check("retry backoff")
            sleep(delay)
            delay *= multiplier
    raise AssertionError("unreachable")  # pragma: no cover


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Classic three-state breaker around a failure-prone operation.

    * **closed** — calls pass through; consecutive failures are counted.
    * **open** — after ``failure_threshold`` consecutive failures, calls are
      short-circuited with :class:`CircuitOpenError` (the guarded operation
      is *not* invoked).
    * **half-open** — once ``reset_seconds`` have elapsed, one trial call is
      allowed; success closes the breaker, failure re-opens it.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
    ) -> None:
        if failure_threshold < 1:
            raise ExecutionError(
                f"failure threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self.name = name
        self._clock = clock
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self._opened_at: float | None = None

    def _before_call(self) -> None:
        if self.state == self.OPEN:
            assert self._opened_at is not None
            if self._clock() - self._opened_at < self.reset_seconds:
                label = f" {self.name!r}" if self.name else ""
                raise CircuitOpenError(
                    f"circuit breaker{label} is open after "
                    f"{self.consecutive_failures} consecutive failures; "
                    f"retrying in {self.reset_seconds:.3g}s windows"
                )
            self.state = self.HALF_OPEN

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED
        self._opened_at = None

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.consecutive_failures >= self.failure_threshold
        ):
            self.state = self.OPEN
            self._opened_at = self._clock()

    def call(self, operation: Callable[[], object]):
        """Run ``operation`` through the breaker, updating its state."""
        self._before_call()
        try:
            result = operation()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result


# ----------------------------------------------------------------------
# Memory guardrails
# ----------------------------------------------------------------------
def _row_bytes(nnz: float, rows: int = 1) -> float:
    return (VALUE_BYTES + INDEX_BYTES) * nnz + POINTER_BYTES * (rows + 1)


def estimate_length2_nnz(
    network: HeterogeneousInformationNetwork, path: MetaPath
) -> float:
    """Expected non-zeros of the materialized count matrix of a 2-hop path.

    Uses the standard sparse-product estimate — ``nnz(A·B) ≈ nnz(A) ·
    (nnz(B) / rows(B))``, capped at dense — which only needs the adjacency
    nnz counts, never the product itself.  That is the whole point: the
    guardrail must price a build *without* performing it.
    """
    if path.length != 2:
        raise ExecutionError(
            f"estimate_length2_nnz expects a 2-hop path, got {path}"
        )
    return estimate_product_nnz(
        network.adjacency(path.types[0], path.types[1]),
        network.adjacency(path.types[1], path.types[2]),
    )


def estimate_pm_index_bytes(network: HeterogeneousInformationNetwork) -> int:
    """Estimated bytes of a full PM index (every legal length-2 meta-path)."""
    total = 0.0
    for types in network.schema.length2_metapaths():
        path = MetaPath(types)
        nnz = estimate_length2_nnz(network, path)
        total += _row_bytes(nnz, rows=network.num_vertices(path.source))
    return int(total)


def estimate_spm_index_bytes(
    network: HeterogeneousInformationNetwork,
    selected: Iterable[VertexId],
) -> int:
    """Estimated bytes of an SPM index covering ``selected`` vertices.

    Prices each selected vertex at the average row weight of every legal
    length-2 path starting at its type.
    """
    per_type_row_bytes: dict[str, float] = {}
    for types in network.schema.length2_metapaths():
        path = MetaPath(types)
        rows = max(1, network.num_vertices(path.source))
        avg_row_nnz = estimate_length2_nnz(network, path) / rows
        per_type_row_bytes[path.source] = per_type_row_bytes.get(
            path.source, 0.0
        ) + _row_bytes(avg_row_nnz)
    return int(
        sum(per_type_row_bytes.get(vertex.type, 0.0) for vertex in selected)
    )


@dataclass
class ResourceGuard:
    """Refuses operations whose estimated footprint exceeds a byte budget.

    ``max_memory_bytes=None`` disables the guard (every estimate passes).
    """

    max_memory_bytes: int | None = None

    def check_estimate(self, estimated_bytes: int, what: str) -> None:
        """Raise :class:`ResourceLimitError` when the estimate is over budget."""
        if self.max_memory_bytes is None:
            return
        if estimated_bytes > self.max_memory_bytes:
            raise ResourceLimitError(
                f"{what} is estimated at {estimated_bytes / 1e6:.1f} MB, over "
                f"the {self.max_memory_bytes / 1e6:.1f} MB memory budget",
                estimated_bytes=estimated_bytes,
                limit_bytes=self.max_memory_bytes,
            )


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass
class ResiliencePolicy:
    """Tunable knobs for resilient execution, shared across queries.

    One policy instance can back many detectors; circuit breakers are held
    *on the policy* so consecutive failures accumulate across rebuilds
    instead of resetting with every strategy object.

    Attributes
    ----------
    timeout_seconds:
        Per-query wall-clock budget (``None`` = unlimited).
    max_memory_mb:
        Ceiling on *estimated* index-build size (``None`` = unlimited).
    retry_attempts, retry_base_delay, retry_multiplier:
        Exponential-backoff settings for transient build failures.
    breaker_threshold, breaker_reset_seconds:
        Circuit-breaker settings for index construction.
    allow_degraded:
        Permit the PM → SPM → on-the-fly ladder.  When false, a failed rung
        raises instead of degrading.
    allow_partial:
        Permit a partial (fewer feature meta-paths than requested) result
        when the deadline expires mid-scoring; the alternative is raising
        :class:`DeadlineExceededError`.
    clock, sleep:
        Injectable time sources for deterministic tests.
    """

    timeout_seconds: float | None = None
    max_memory_mb: float | None = None
    retry_attempts: int = 3
    retry_base_delay: float = 0.05
    retry_multiplier: float = 2.0
    breaker_threshold: int = 3
    breaker_reset_seconds: float = 30.0
    allow_degraded: bool = True
    allow_partial: bool = True
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep
    _breakers: dict[str, CircuitBreaker] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def max_memory_bytes(self) -> int | None:
        if self.max_memory_mb is None:
            return None
        return int(self.max_memory_mb * 1e6)

    def deadline(self) -> Deadline | None:
        """A fresh per-query deadline, or ``None`` without a timeout."""
        if self.timeout_seconds is None:
            return None
        return Deadline(self.timeout_seconds, clock=self.clock)

    def resource_guard(self) -> ResourceGuard:
        return ResourceGuard(self.max_memory_bytes)

    def breaker(self, key: str) -> CircuitBreaker:
        """The (policy-lifetime) circuit breaker guarding operation ``key``."""
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                reset_seconds=self.breaker_reset_seconds,
                clock=self.clock,
                name=key,
            )
            self._breakers[key] = breaker
        return breaker

    def retry(self, operation: Callable[[], object]):
        """Run ``operation`` under this policy's backoff settings."""
        return retry_with_backoff(
            operation,
            attempts=self.retry_attempts,
            base_delay=self.retry_base_delay,
            multiplier=self.retry_multiplier,
            sleep=self.sleep,
            deadline=current_deadline(),
        )

    def guarded_build(
        self, name: str, estimated_bytes: int, what: str, build: Callable[[], object]
    ):
        """``build()`` as this policy builds an index: refused when
        ``estimated_bytes`` is over the memory budget, else run through the
        ``<name>-index-build`` breaker with retry."""
        self.resource_guard().check_estimate(estimated_bytes, what)
        return self.breaker(f"{name}-index-build").call(lambda: self.retry(build))


# ----------------------------------------------------------------------
# The degradation ladder
# ----------------------------------------------------------------------
class FallbackStrategy(_CoverageStrategy):
    """The coverage routine over a degradation ladder: PM → SPM → on-the-fly.

    A rung is only *which index* the routine serves from
    (:class:`~repro.engine.strategies.Rung`).  The first is built on first
    use, behind the policy's memory guard, breaker and retry, unless
    ``index`` hands it in.  When a rung cannot be built or a request fails
    on it, the next rung's index is built the same way and published under
    a lock — only while the failed rung is still installed, so concurrent
    failures demote once and the losers re-run on the winner's rung.  The
    demotion history is ``degradation_reason``, which flags the result.
    The final rung (on-the-fly traversal) needs no index and cannot fail to
    build, so a query always gets an answer unless its deadline expires or
    its counts reach 2**53 (:class:`~repro.exceptions.InexactCountError`),
    which no rung can help and which therefore never demotes.

    Parameters
    ----------
    network:
        The network to execute over.
    ladder:
        Rung names strongest-first; defaults to the requested strategy's
        suffix of ``DEGRADATION_LADDER``.
    policy:
        Shared :class:`ResiliencePolicy` (a default one is created when
        omitted).
    spm_selected:
        Vertices to index when the SPM rung is built.
    index:
        The first rung's prebuilt index, as ``index`` means for PM and SPM.
    """

    name = "resilient"

    def __init__(
        self,
        network: HeterogeneousInformationNetwork,
        *,
        ladder: Sequence[str] = DEGRADATION_LADDER,
        policy: ResiliencePolicy | None = None,
        spm_selected: Iterable[VertexId] | None = None,
        index: MetaPathIndex | None = None,
    ) -> None:
        if not ladder:
            raise ExecutionError("the degradation ladder needs at least one rung")
        ladder = tuple(strategy_name(rung) for rung in ladder)
        first = None if index is None else Rung.of(network, ladder[0], index)
        super().__init__(network, first)
        self.ladder = ladder
        self.policy = policy if policy is not None else ResiliencePolicy()
        self._spm_selected = list(spm_selected or [])
        self._lock = threading.RLock()
        #: ``(rung, reason)`` pairs, in demotion order.
        self.events: list[tuple[str, str]] = []

    @property
    def rung(self) -> Rung:
        """The installed rung (the first is built on first use)."""
        rung = self._rung
        return rung if rung is not None else self._install(None)

    @property
    def active_rung(self) -> str:
        """The name of the rung answering queries."""
        return self.rung.name

    @property
    def degradation_reason(self) -> str | None:
        """Human-readable demotion history (``None`` while undegraded)."""
        if not self.events:
            return None
        return "; ".join(f"{rung}: {reason}" for rung, reason in self.events)

    def tolerate_stale(self) -> None:
        with self._lock:
            super().tolerate_stale()

    def _build_rung(self, name: str) -> Rung:
        """``name``'s index, behind the memory guard, breaker and retry."""
        if name == "baseline":
            return Rung.of(self.network, name)
        network, selected = self.network, self._spm_selected
        index = self.policy.guarded_build(
            name,
            estimate_pm_index_bytes(network)
            if name == "pm"
            else estimate_spm_index_bytes(network, selected),
            f"the {name.upper()} index build",
            lambda: build_index(network, name, selected),
        )
        return Rung.of(network, name, index)

    def _install(self, failed: Rung | None, reason: str = "") -> Rung:
        """Publish the strongest buildable rung below ``failed`` (the first
        rung when ``None``) — unless another caller already replaced it.

        Its events are recorded with the outcome, so a deadline that stops
        the build leaves ``failed`` installed to demote again, unrecorded.
        """
        with self._lock:
            if self._rung is not failed:
                return self._rung
            events = [] if failed is None else [(failed.name, reason)]
            start = 0 if failed is None else self.ladder.index(failed.name) + 1
            for name in self.ladder[start:]:
                try:
                    rung = self._build_rung(name)
                except DeadlineExceededError:
                    raise
                except ExecutionError as error:
                    if not self.policy.allow_degraded:
                        raise
                    events.append((name, f"build failed ({error})"))
                    continue
                self.events += events
                self._rung = rung
                return rung
            self.events += events
        raise ExecutionError(
            "degradation ladder exhausted: " + (self.degradation_reason or "")
        )

    def _demoting(self, operation: str, call, *args):
        """``call(*args)``, demoting and re-running while the rung fails."""
        while True:
            rung = self.rung
            try:
                return call(*args)
            except (DeadlineExceededError, InexactCountError):
                raise  # no rung answers these: the budget or the data refuses
            except ExecutionError as error:
                if not self.policy.allow_degraded or rung.name == self.ladder[-1]:
                    raise
                self._install(rung, f"{operation} failed ({error})")

    def neighbor_matrix(self, path, vertex_indices, stats=None) -> sparse.csr_matrix:
        call = super().neighbor_matrix
        return self._demoting("neighbor_matrix", call, path, vertex_indices, stats)

    def neighbor_support(self, path, vertex_index, stats=None):
        call = super().neighbor_support
        return self._demoting("neighbor_support", call, path, vertex_index, stats)

    def connectivity_sums(self, path, candidates, reference, stats=None):
        call = super().connectivity_sums
        args = (path, candidates, reference, stats)
        return self._demoting("connectivity_sums", call, *args)
