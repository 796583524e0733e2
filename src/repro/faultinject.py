"""Deterministic, seedable fault injection for resilience testing.

Production code is instrumented with named *fault points* — cheap calls of
the form ``faultinject.check("index_build")`` placed at the seams where real
deployments fail: index construction, cache reads, sparse matrix products,
and index file I/O.  When no injector is active a check is a single global
read; tests activate a :class:`FaultInjector` (usually via the
:func:`inject` context manager) to make chosen points raise on a
deterministic schedule.

Determinism matters: the resilience test suite must prove *exactly* which
rung of the degradation ladder answered, so every injector is driven by a
seeded :class:`random.Random` and per-point call counters rather than wall
clock or global randomness.

Example
-------
>>> from repro import faultinject
>>> from repro.exceptions import TransientFaultError
>>> rule = faultinject.FaultRule(point="index_build", times=2)
>>> with faultinject.inject(rule) as injector:
...     for _ in range(3):
...         try:
...             faultinject.check("index_build")
...         except TransientFaultError:
...             pass
>>> injector.fired["index_build"]
2
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.exceptions import ExecutionError, TransientFaultError

__all__ = [
    "FAULT_POINTS",
    "FaultRule",
    "FaultInjector",
    "check",
    "inject",
    "active_injector",
]

#: The instrumented seams, in the order a query traverses them.  The
#: ``service.enqueue`` point sits in the service layer's admission path so
#: the harness can simulate queue stalls and verify load-shedding behavior.
FAULT_POINTS = (
    "index_build",
    "cache_read",
    "matrix_multiply",
    "io",
    "service.enqueue",
    "subpath.get",
    "subpath.put",
)


@dataclass
class FaultRule:
    """When and how one fault point misbehaves.

    Attributes
    ----------
    point:
        Which instrumented seam this rule applies to (see ``FAULT_POINTS``).
    probability:
        Chance that an eligible call fires, drawn from the injector's seeded
        RNG.  ``1.0`` (the default) makes the schedule fully deterministic.
    times:
        Fire at most this many times, then go quiet (``None`` = unlimited).
        ``times=N`` with ``probability=1.0`` models "the first N attempts
        fail, then the dependency recovers" — the shape retry logic and
        circuit breakers are tested against.
    after_calls:
        Skip this many calls at the point before becoming eligible.
    error:
        Exception type raised when the rule fires (default
        :class:`~repro.exceptions.TransientFaultError`).
    message:
        Optional message override for the raised error.
    delay_seconds:
        When set, a firing rule *delays* the call (through the injector's
        injectable ``sleep``) instead of raising — latency injection for
        slow-dependency scenarios (e.g. a matrix product that runs past a
        query's deadline).  A delayed call then proceeds
        normally; combine two rules (one delaying, one raising) to model a
        slow *and* failing dependency.
    """

    point: str
    probability: float = 1.0
    times: int | None = None
    after_calls: int = 0
    error: type[Exception] = TransientFaultError
    message: str = ""
    delay_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ExecutionError(
                f"unknown fault point {self.point!r}; expected one of "
                f"{FAULT_POINTS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ExecutionError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.delay_seconds is not None and self.delay_seconds < 0:
            raise ExecutionError(
                f"fault delay must be >= 0, got {self.delay_seconds}"
            )


@dataclass
class FaultInjector:
    """Evaluates :class:`FaultRule` schedules against per-point call counts.

    Not installed globally until :meth:`activate` (or the :func:`inject`
    context manager) is used.  ``calls`` and ``fired`` expose per-point
    counters so tests can assert exactly how many faults were injected.
    ``sleep`` implements delay rules and is injectable so latency-injection
    tests can run in zero wall time.
    """

    rules: Sequence[FaultRule] = ()
    seed: int = 0
    calls: dict[str, int] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._rule_fired = [0] * len(self.rules)

    def check(self, point: str) -> None:
        """Record one call at ``point`` and raise if a rule says so."""
        call_number = self.calls.get(point, 0)
        self.calls[point] = call_number + 1
        for position, rule in enumerate(self.rules):
            if rule.point != point:
                continue
            if call_number < rule.after_calls:
                continue
            if rule.times is not None and self._rule_fired[position] >= rule.times:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            self._rule_fired[position] += 1
            self.fired[point] = self.fired.get(point, 0) + 1
            if rule.delay_seconds is not None:
                # Latency injection: stall the call, then let it proceed
                # (later rules at the same point still get their say).
                self.sleep(rule.delay_seconds)
                continue
            message = rule.message or (
                f"injected fault at {point!r} "
                f"(call {call_number}, firing {self._rule_fired[position]})"
            )
            raise rule.error(message)

    # ------------------------------------------------------------------
    # Global installation
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Install this injector as the process-wide active one."""
        global _ACTIVE
        _ACTIVE = self

    def deactivate(self) -> None:
        """Remove this injector if it is the active one."""
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None


_ACTIVE: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    """The currently installed injector, or ``None`` in production."""
    return _ACTIVE


def check(point: str) -> None:
    """Fault-point hook called from instrumented production code.

    A no-op (one global read) unless an injector is active.
    """
    if _ACTIVE is not None:
        _ACTIVE.check(point)


@contextmanager
def inject(*rules: FaultRule, seed: int = 0) -> Iterator[FaultInjector]:
    """Activate a fresh injector for the duration of a ``with`` block.

    Yields the injector so the block (or assertions after it) can inspect
    ``calls`` / ``fired`` counters.
    """
    injector = FaultInjector(rules=list(rules), seed=seed)
    injector.activate()
    try:
        yield injector
    finally:
        injector.deactivate()
