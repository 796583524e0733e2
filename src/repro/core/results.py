"""Ranked outlier-detection results.

The executor returns an :class:`OutlierResult`: the top-k candidates sorted
by ascending Ω (lower = more outlying, the paper's convention), along with
Ω for every candidate — stored as columns, one float per candidate index —
and the execution statistics used by the efficiency benchmarks.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from repro.hin.network import VertexId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.stats import ExecutionStats

__all__ = ["ScoredVertex", "OutlierResult"]


@dataclass(frozen=True)
class ScoredVertex:
    """One ranked outlier: vertex identity, display name, Ω score, 1-based rank."""

    vertex: VertexId
    name: str
    score: float
    rank: int


def _column(values, dtype) -> np.ndarray:
    """A private read-only copy of ``values``: a caller's array is never
    frozen under them, and no holder of a result — a cache hands the same
    object to every later client — can edit what the next one is sent."""
    column = np.array(values, dtype=dtype, ndmin=1)
    column.flags.writeable = False
    return column


def _columns(scores: Mapping, feature_scores: "Mapping | None") -> tuple:
    """``VertexId`` mappings as ``(member_type, indices, Ω, feature Ω)`` columns.

    Raises ``ValueError`` unless the candidates are all of one vertex type
    and every feature map covers exactly the candidates.
    """
    member_types = {vertex.type for vertex in scores}
    if len(member_types) > 1:
        raise ValueError(
            f"a result holds candidates of one vertex type, got {sorted(member_types)}"
        )
    feature_omega = None
    if feature_scores is not None:
        feature_omega = {}
        for path_text, per_path in feature_scores.items():
            if per_path.keys() != scores.keys():
                raise ValueError(
                    f"feature scores for {path_text!r} do not cover exactly "
                    "the candidates"
                )
            feature_omega[path_text] = [per_path[vertex] for vertex in scores]
    member_type = member_types.pop() if member_types else ""
    indices = [vertex.index for vertex in scores]
    return member_type, indices, list(scores.values()), feature_omega


@dataclass(eq=False)
class OutlierResult:
    """Result of one outlier query, stored as columns.

    A result covers candidates of **one** vertex type, and every column
    holds one entry per candidate, in candidate order.  Build one with
    :meth:`from_columns` (arrays) or :meth:`from_scores` (mappings); both
    rank through the same routine.  ``scores`` and ``feature_scores`` are
    the columns as read-only ``VertexId -> Ω`` mappings, built on first
    access; they compare equal to plain dicts, and writing to one raises
    ``TypeError``.
    """

    #: The vertex type every candidate belongs to.
    member_type: str
    #: Candidate vertex indices (stored as a read-only ``int64`` column).
    indices: np.ndarray
    #: Ω for *every* candidate, not only the top-k (read-only ``float64``).
    omega: np.ndarray
    #: Top-k candidates by ascending Ω.  Ties break by vertex name, then
    #: vertex index, so results are deterministic.
    outliers: list[ScoredVertex]
    #: Size of the evaluated reference set.
    reference_count: int
    #: Name of the measure that produced the scores.
    measure: str = "netout"
    #: Per-phase execution statistics (``None`` unless the executor was
    #: asked to collect them).
    stats: "ExecutionStats | None" = None
    #: Per-feature-meta-path Ω columns (meta-path text -> column), populated
    #: for multi-feature queries so users can see *which* aspect made a
    #: candidate an outlier.  ``None`` for single-feature queries.
    feature_omega: "dict[str, np.ndarray] | None" = None
    #: True when the result was produced on a degraded path: a fallback
    #: materialization rung (PM → SPM → on-the-fly), or a partial scoring
    #: pass cut short by the query deadline.  The ranking is still valid —
    #: it was just computed more cheaply (or from fewer feature meta-paths)
    #: than requested.
    degraded: bool = False
    #: Human-readable explanation of *why* the result is degraded
    #: (``None`` when ``degraded`` is false).
    degradation_reason: str | None = None

    def __post_init__(self) -> None:
        self.indices = _column(self.indices, np.int64)
        self.omega = _column(self.omega, np.float64)
        if self.feature_omega is not None:
            self.feature_omega = {
                path_text: _column(values, np.float64)
                for path_text, values in self.feature_omega.items()
            }
        for column in (self.omega, *(self.feature_omega or {}).values()):
            if column.shape != self.indices.shape:
                raise ValueError(
                    f"a score column holds {column.size} values for "
                    f"{self.indices.size} candidates"
                )

    @classmethod
    def from_columns(
        cls,
        member_type: str,
        indices,
        omega,
        names: "Sequence[str] | Mapping[int, str]",
        *,
        top_k: int,
        **metadata,
    ) -> "OutlierResult":
        """Rank the Ω column ascending and keep the ``top_k`` head.

        ``names`` maps a vertex index to its display name; ``metadata`` is
        the remaining dataclass fields.  Only the *tie closure* of the head
        — every candidate scoring no more than the k-th smallest Ω — is
        sorted: under the key ``(score, name, index)`` no candidate outside
        it precedes one inside it, and at least ``top_k`` are inside, so the
        head equals that of a full sort.
        """
        result = cls(member_type, indices, omega, [], **metadata)
        scores = result.omega
        closure = np.arange(scores.size)
        if 0 < top_k < scores.size:
            kth = np.partition(scores, top_k - 1)[top_k - 1]
            within = np.flatnonzero(scores <= kth)
            # A NaN among the k smallest has no defined rank, and compares
            # false: everything is sorted then, as a full sort would.
            if within.size >= top_k:
                closure = within
        head = result.indices[closure].tolist()
        ordered = sorted(
            zip(scores[closure].tolist(), [names[index] for index in head], head)
        )
        result.outliers = [
            ScoredVertex(VertexId(member_type, index), name, score, rank)
            for rank, (score, name, index) in enumerate(ordered[:top_k], start=1)
        ]
        return result

    @classmethod
    def from_scores(
        cls,
        scores: Mapping[VertexId, float],
        names: Mapping[VertexId, str],
        *,
        feature_scores: "Mapping[str, Mapping[VertexId, float]] | None" = None,
        **metadata,
    ) -> "OutlierResult":
        """:meth:`from_columns` for callers that hold ``VertexId`` mappings
        (``ValueError`` on mixed vertex types or a ragged feature map)."""
        member_type, indices, omega, feature_omega = _columns(scores, feature_scores)
        return cls.from_columns(
            member_type,
            indices,
            omega,
            {vertex.index: names[vertex] for vertex in scores},
            feature_omega=feature_omega,
            **metadata,
        )

    @property
    def candidate_count(self) -> int:
        """Size of the evaluated candidate set."""
        return self.indices.size

    def _view(self, column: np.ndarray) -> Mapping[VertexId, float]:
        member_type = self.member_type
        return MappingProxyType(
            {
                VertexId(member_type, index): score
                for index, score in zip(self.indices.tolist(), column.tolist())
            }
        )

    @cached_property
    def scores(self) -> Mapping[VertexId, float]:
        return self._view(self.omega)

    @cached_property
    def feature_scores(self) -> "Mapping[str, Mapping[VertexId, float]] | None":
        if self.feature_omega is None:
            return None
        return MappingProxyType(
            {path: self._view(column) for path, column in self.feature_omega.items()}
        )

    def __getstate__(self) -> dict:
        """Pickled (the process backend's result pipe) as the fields — columns,
        the k records, flags — less ``stats``, like :meth:`to_dict`; never the
        lazy views."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "stats": None}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)  # unpickled arrays are writeable: refreeze

    def __iter__(self) -> Iterator[ScoredVertex]:
        return iter(self.outliers)

    def __len__(self) -> int:
        return len(self.outliers)

    def names(self) -> list[str]:
        """Outlier display names in rank order."""
        return [entry.name for entry in self.outliers]

    def to_records(self) -> list[dict]:
        """The ranking as plain dictionaries (JSON-ready)."""
        return [
            {
                "rank": entry.rank,
                "name": entry.name,
                "vertex_type": entry.vertex.type,
                "vertex_index": entry.vertex.index,
                "score": entry.score,
            }
            for entry in self.outliers
        ]

    def to_dict(self) -> dict:
        """The full result as one JSON-safe dictionary (lossless).

        Unlike :meth:`to_records`/:meth:`to_json` — which keep only the
        display payload — this captures everything needed to reconstruct
        the result with :meth:`from_dict`: the complete score column, the
        per-feature breakdown, and the degradation flags.  ``stats`` is the
        one exception: execution timings describe the machine that ran the
        query, not the answer, so they do not serialize.

        The wire form for a score column is a list of ``[type, index,
        score]`` triples (JSON objects cannot key on vertex identity), in
        candidate order, holding builtin ``str``/``int``/``float``.
        """
        member_type = self.member_type
        indices = self.indices.tolist()

        def pack(column: np.ndarray) -> list[list]:
            return [
                [member_type, index, score]
                for index, score in zip(indices, column.tolist())
            ]

        payload: dict = {
            "measure": self.measure,
            "candidate_count": self.candidate_count,
            "reference_count": self.reference_count,
            "degraded": self.degraded,
            "degradation_reason": self.degradation_reason,
            "outliers": self.to_records(),
            "scores": pack(self.omega),
        }
        if self.feature_omega is not None:
            payload["feature_scores"] = {
                path_text: pack(column)
                for path_text, column in self.feature_omega.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "OutlierResult":
        """Reconstruct a result from :meth:`to_dict` output.

        Round-trips scores, ranks, names, degradation flags, and the
        per-feature breakdown exactly (``stats`` comes back ``None``).  The
        ranking is the payload's, not recomputed: names travel only with
        the ranked records.
        """

        def unpack(triples) -> dict[VertexId, float]:
            return {
                VertexId(str(vertex_type), int(index)): float(score)
                for vertex_type, index, score in triples
            }

        feature_scores = payload.get("feature_scores")
        if feature_scores is not None:
            feature_scores = {
                str(path_text): unpack(triples)
                for path_text, triples in feature_scores.items()
            }
        outliers = [
            ScoredVertex(
                VertexId(str(record["vertex_type"]), int(record["vertex_index"])),
                str(record["name"]),
                float(record["score"]),
                int(record["rank"]),
            )
            for record in payload["outliers"]
        ]
        member_type, indices, omega, feature_omega = _columns(
            unpack(payload["scores"]), feature_scores
        )
        return cls(
            member_type,
            indices,
            omega,
            outliers,
            reference_count=int(payload["reference_count"]),
            measure=str(payload["measure"]),
            feature_omega=feature_omega,
            degraded=bool(payload.get("degraded", False)),
            degradation_reason=payload.get("degradation_reason"),
        )

    def to_json(self) -> str:
        """The full result (ranking + metadata) as a JSON document."""
        payload = {
            "measure": self.measure,
            "candidate_count": self.candidate_count,
            "reference_count": self.reference_count,
            "outliers": self.to_records(),
        }
        if self.degraded:
            payload["degraded"] = True
            payload["degradation_reason"] = self.degradation_reason
        return json.dumps(payload)

    def to_csv(self, handle) -> int:
        """Write the ranking as CSV to an open text handle; returns rows written."""
        writer = csv.writer(handle)
        writer.writerow(["rank", "name", "vertex_type", "vertex_index", "score"])
        for record in self.to_records():
            writer.writerow(
                [
                    record["rank"],
                    record["name"],
                    record["vertex_type"],
                    record["vertex_index"],
                    record["score"],
                ]
            )
        return len(self.outliers)

    def to_table(self, *, max_rows: int | None = None) -> str:
        """Render the ranking as an aligned text table (paper Table 5 style)."""
        rows = self.outliers if max_rows is None else self.outliers[:max_rows]
        if not rows:
            return "(no outliers)"
        name_width = max(len("Name"), max(len(r.name) for r in rows))
        lines = [f"{'Rank':>4}  {'Name':<{name_width}}  {'Ω-value':>10}"]
        for entry in rows:
            lines.append(
                f"{entry.rank:>4}  {entry.name:<{name_width}}  {entry.score:>10.4g}"
            )
        return "\n".join(lines)

    def explain_vertex(self, vertex: VertexId) -> dict[str, float]:
        """Per-feature Ω of one candidate (empty for single-feature queries)."""
        if self.feature_scores is None:
            return {}
        return {
            path_text: per_path[vertex]
            for path_text, per_path in self.feature_scores.items()
            if vertex in per_path
        }
