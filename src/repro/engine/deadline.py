"""Cooperative per-query deadlines (the time-budget half of resilience).

Kept in a leaf module — importing only the exception hierarchy — so the
strategy layer's hot loops can call :func:`check_deadline` without creating
a cycle with :mod:`repro.engine.resilience`, which builds on the strategy
layer.  User code should import these names from
:mod:`repro.engine.resilience`, which re-exports them.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.exceptions import DeadlineExceededError, ExecutionError

__all__ = ["Deadline", "deadline_scope", "current_deadline", "check_deadline"]


class Deadline:
    """A cooperative time budget for one query.

    The engine never preempts: loops that can run long call :meth:`check`
    (usually via the ambient :func:`check_deadline`) often enough that an
    expired budget surfaces within a small multiple of one loop iteration.

    Parameters
    ----------
    budget_seconds:
        Wall-clock budget; ``None`` means unlimited (checks never raise).
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        budget_seconds: float | None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_seconds is not None and budget_seconds < 0:
            raise ExecutionError(
                f"deadline budget must be >= 0 seconds, got {budget_seconds}"
            )
        self.budget_seconds = budget_seconds
        self._clock = clock
        self._started = clock()

    def elapsed(self) -> float:
        """Seconds since this deadline started."""
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left in the budget (``inf`` when unlimited)."""
        if self.budget_seconds is None:
            return math.inf
        return self.budget_seconds - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, context: str = "") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.budget_seconds is None:
            return
        elapsed = self.elapsed()
        if elapsed >= self.budget_seconds:
            suffix = f" during {context}" if context else ""
            raise DeadlineExceededError(
                f"query exceeded its {self.budget_seconds:.3g}s budget"
                f"{suffix} (elapsed {elapsed:.3g}s)",
                budget_seconds=self.budget_seconds,
                elapsed_seconds=elapsed,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.budget_seconds is None:
            return "Deadline(unlimited)"
        return f"Deadline({self.budget_seconds}s, remaining={self.remaining():.3g}s)"


_SCOPE = threading.local()


def _deadline_stack() -> list[Deadline]:
    stack = getattr(_SCOPE, "stack", None)
    if stack is None:
        stack = []
        _SCOPE.stack = stack
    return stack


@contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Make ``deadline`` the ambient deadline for the ``with`` block.

    Strategies deep inside materialization loops pick it up through
    :func:`check_deadline` without every signature threading a deadline
    parameter.  ``None`` installs nothing (checks stay no-ops).
    """
    if deadline is None:
        yield None
        return
    stack = _deadline_stack()
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


def current_deadline() -> Deadline | None:
    """The innermost ambient deadline, or ``None`` outside any scope."""
    stack = getattr(_SCOPE, "stack", None)
    if not stack:
        return None
    return stack[-1]


def check_deadline(context: str = "") -> None:
    """Check the ambient deadline; a no-op outside any :func:`deadline_scope`."""
    stack = getattr(_SCOPE, "stack", None)
    if stack:
        stack[-1].check(context)
