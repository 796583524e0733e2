"""Timing instrumentation for the query engine.

The paper's efficiency study (Figures 3-5) reports both total query time and
a per-phase breakdown (meta-path materialization for non-indexed vertices,
index lookups for indexed vertices, and outlierness calculation).
:class:`PhaseTimer` accumulates wall-clock time per named phase so the
executor can report exactly those series.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["PhaseTimer"]


@dataclass
class PhaseTimer:
    """Accumulates elapsed wall-clock seconds per named phase.

    Phases may be entered repeatedly; times accumulate.  Nested phases are
    allowed and each level accounts its own wall time independently (the
    engine never nests the same phase).
    """

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager accumulating the block's wall time under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    def add(self, name: str, seconds: float) -> None:
        """Manually accumulate ``seconds`` under ``name``."""
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        """Accumulated seconds for ``name`` (0.0 if the phase never ran)."""
        return self.totals.get(name, 0.0)

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's accumulations into this one."""
        for name, seconds in other.totals.items():
            self.totals[name] = self.totals.get(name, 0.0) + seconds
        for name, count in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + count

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()
