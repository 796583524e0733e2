"""Execution statistics for the efficiency study (paper Figures 3-5).

The paper's in-depth analysis (Figure 4) splits query processing time into
three phases, which we reproduce verbatim:

* ``PHASE_NOT_INDEXED`` — meta-path materialization by traversal, for
  vertices without a pre-materialized row;
* ``PHASE_INDEXED`` — loading pre-materialized rows from the index;
* ``PHASE_SCORING`` — the outlierness (NetOut) calculation itself.

:class:`ExecutionStats` accumulates these per query and merges across a
query set, which is exactly how the figures aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.timers import PhaseTimer

__all__ = [
    "PHASE_NOT_INDEXED",
    "PHASE_INDEXED",
    "PHASE_SCORING",
    "ExecutionStats",
]

PHASE_NOT_INDEXED = "not_indexed_vectors"
PHASE_INDEXED = "indexed_vectors"
PHASE_SCORING = "outlierness_calculation"


@dataclass
class ExecutionStats:
    """Per-phase timings and materialization counters for query execution.

    Attributes
    ----------
    timer:
        Wall-clock accumulation per phase (seconds).
    traversed_vectors, indexed_vectors:
        One rule for every strategy: one count per *segment fetch*.  A
        meta-path decomposes into length-2 segments (§6.2); materializing a
        block fetches the first segment's row once per start vertex and
        each later segment's row once per stored element of the block
        entering it.  A fetch is **indexed** when the index covers the
        fetched vertex for that segment, **traversed** otherwise — so PM
        counts only indexed fetches, the baseline only traversed ones, and
        SPM the mix Figure 4 analyzes.  A path shorter than one segment
        (length 0 or 1) fetches nothing from any index: each of its rows
        counts as one traversed vector.  The first segment's gather and
        product are timed into their own phases; the rest of a block's
        time is split between the two phases in proportion to its counts.
    propagated_vectors:
        Operand rows fetched while Equation 1 is scored by vector
        propagation: by the later-segment rule, one per stored element of the
        frontier entering a hop — an adjacency hop, or one hop over a stored
        length-2 matrix.  Kept apart because their time is scoring time.
    materialized_blocks:
        Number of materialization blocks (≤ ``BLOCK_ROWS`` rows each)
        processed by ``neighbor_matrix`` calls; a ``neighbor_row`` call is
        a one-row block and counts one.
    queries:
        Number of queries folded into this object (1 for a single run,
        larger after :meth:`merge`).
    """

    timer: PhaseTimer = field(default_factory=PhaseTimer)
    traversed_vectors: int = 0
    indexed_vectors: int = 0
    propagated_vectors: int = 0
    materialized_blocks: int = 0
    queries: int = 1
    #: End-to-end wall time of the query (parse to ranked result).  The
    #: three tracked phases cover materialization and scoring; wall time
    #: additionally includes parsing, validation, and set bookkeeping —
    #: this is the "total execution time" Figure 3 plots.
    wall_seconds: float = 0.0

    # -- phase accessors -------------------------------------------------
    @property
    def not_indexed_seconds(self) -> float:
        return self.timer.total(PHASE_NOT_INDEXED)

    @property
    def indexed_seconds(self) -> float:
        return self.timer.total(PHASE_INDEXED)

    @property
    def scoring_seconds(self) -> float:
        return self.timer.total(PHASE_SCORING)

    @property
    def materialization_seconds(self) -> float:
        """Total neighbor-vector materialization time, both phases.

        The quantity the strategy comparison (Figure 3) actually varies:
        parse/validate/score time is identical across strategies, so
        strategy benchmarks compare this rather than ``wall_seconds``.
        """
        return self.not_indexed_seconds + self.indexed_seconds

    # -- aggregation -----------------------------------------------------
    def merge(self, other: "ExecutionStats") -> None:
        """Fold another query's stats into this aggregate."""
        self.timer.merge(other.timer)
        self.traversed_vectors += other.traversed_vectors
        self.indexed_vectors += other.indexed_vectors
        self.propagated_vectors += other.propagated_vectors
        self.materialized_blocks += other.materialized_blocks
        self.queries += other.queries
        self.wall_seconds += other.wall_seconds

    def breakdown(self) -> dict[str, float]:
        """Phase-name → seconds map in paper (Figure 4) order."""
        return {
            PHASE_NOT_INDEXED: self.not_indexed_seconds,
            PHASE_INDEXED: self.indexed_seconds,
            PHASE_SCORING: self.scoring_seconds,
        }

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionStats(queries={self.queries}, "
            f"total={sum(self.timer.totals.values()) * 1e3:.2f} ms, "
            f"not_indexed={self.not_indexed_seconds * 1e3:.2f} ms, "
            f"indexed={self.indexed_seconds * 1e3:.2f} ms, "
            f"scoring={self.scoring_seconds * 1e3:.2f} ms)"
        )
