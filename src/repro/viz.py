"""Terminal visualization of outlier results (paper §8).

Section 8 suggests visualizing outliers "to provide more insight".  This
module renders the three views an analyst wants after a query, as plain
text (no plotting dependency):

* :func:`histogram` / :func:`sparkline` — generic numeric views;
* :func:`score_distribution` — where the top-k outliers sit inside the
  candidate Ω distribution;
* :func:`profile_comparison` — a candidate's neighbor vector side by side
  with the reference set's aggregate profile, showing *why* the vertex is
  an outlier (the dimensions where it deviates).
"""

from __future__ import annotations

import numpy as np

from repro.core.results import OutlierResult
from repro.engine.strategies import MaterializationStrategy
from repro.exceptions import ReproError
from repro.hin.network import VertexId
from repro.metapath.metapath import MetaPath

__all__ = [
    "histogram",
    "sparkline",
    "score_distribution",
    "profile_comparison",
]

_BLOCKS = " ▁▂▃▄▅▆▇█"
_BAR = "█"


def sparkline(values) -> str:
    """One-line block-character rendering of a numeric sequence.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▆█'
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return ""
    low, high = float(data.min()), float(data.max())
    if high == low:
        return _BLOCKS[1] * data.size
    scaled = (data - low) / (high - low) * (len(_BLOCKS) - 2) + 1
    return "".join(_BLOCKS[int(round(s))] for s in scaled)


def histogram(values, *, bins: int = 10, width: int = 40) -> str:
    """A horizontal ASCII histogram with bin ranges and counts."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return "(no data)"
    if bins < 1:
        raise ReproError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(data, bins=bins)
    peak = counts.max() if counts.max() > 0 else 1
    lines = []
    for count, low, high in zip(counts, edges, edges[1:]):
        bar = _BAR * int(round(count / peak * width))
        lines.append(f"[{low:>10.3g}, {high:>10.3g})  {bar} {count}")
    return "\n".join(lines)


def score_distribution(result: OutlierResult, *, bins: int = 12, width: int = 36) -> str:
    """Histogram of candidate Ω scores with the top-k outliers marked."""
    scores = result.omega
    if scores.size == 0:
        return "(no candidates)"
    outlier_scores = {entry.score for entry in result.outliers}
    counts, edges = np.histogram(scores, bins=bins)
    peak = counts.max() if counts.max() > 0 else 1
    lines = [
        f"Ω distribution over {result.candidate_count} candidates "
        f"(lower = more outlying; * bins hold top-{len(result)} outliers)"
    ]
    for count, low, high in zip(counts, edges, edges[1:]):
        has_outlier = any(
            low <= score < high or (high == edges[-1] and score == high)
            for score in outlier_scores
        )
        marker = "*" if has_outlier else " "
        bar = _BAR * int(round(count / peak * width))
        lines.append(f"{marker} [{low:>9.3g}, {high:>9.3g})  {bar} {count}")
    return "\n".join(lines)


def profile_comparison(
    strategy: MaterializationStrategy,
    path: MetaPath,
    vertex: VertexId,
    reference: list[int],
    *,
    top_dimensions: int = 10,
    width: int = 24,
) -> str:
    """Why is ``vertex`` an outlier?  Its φ profile vs the reference mean.

    Shows the ``top_dimensions`` feature dimensions (target-type vertices)
    with the largest combined mass, with paired bars: the candidate's
    path-count share on top, the reference set's average share below.

    Parameters
    ----------
    strategy:
        Used to materialize the neighbor vectors.
    path:
        The feature meta-path of the query.
    vertex:
        The candidate to explain (must have the path's source type).
    reference:
        Reference vertex indices (same type).
    """
    if vertex.type != path.source:
        raise ReproError(
            f"vertex {vertex} does not match the meta-path source {path.source!r}"
        )
    network = strategy.network
    phi_vertex = np.asarray(
        strategy.neighbor_row(path, vertex.index).todense()
    ).ravel()
    phi_reference = strategy.neighbor_matrix(path, reference)
    reference_mean = np.asarray(phi_reference.mean(axis=0)).ravel()

    vertex_share = phi_vertex / phi_vertex.sum() if phi_vertex.sum() else phi_vertex
    reference_share = (
        reference_mean / reference_mean.sum() if reference_mean.sum() else reference_mean
    )
    combined = vertex_share + reference_share
    order = np.argsort(-combined)[:top_dimensions]

    target_names = network.vertex_names(path.target)
    name_width = max(
        [len(target_names[i]) for i in order] + [len(path.target)]
    )
    peak = max(combined[order].max(), 1e-12)
    lines = [
        f"{network.vertex_name(vertex)} vs {len(reference)} reference "
        f"vertices along {path}",
        f"{'dimension':<{name_width}}  {'candidate':<{width}}  reference",
    ]
    for index in order:
        candidate_bar = _BAR * int(round(vertex_share[index] / peak * width))
        reference_bar = _BAR * int(round(reference_share[index] / peak * width))
        lines.append(
            f"{target_names[index]:<{name_width}}  "
            f"{candidate_bar:<{width}}  {reference_bar}"
        )
    return "\n".join(lines)
