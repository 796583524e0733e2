"""SimRank similarity (Jeh & Widom, KDD 2002) over heterogeneous networks.

Section 5.2 of the paper contrasts PathSim with SimRank: "Comparing to
SimRank or Personalized PageRank, PathSim assigns lower similarity to
vertices whose connectivity is high but whose visibilities differ."  To
replay that comparison we implement SimRank from scratch.

SimRank's recursive definition: two vertices are similar when their
neighbors are similar,

    s(a, b) = C / (|N(a)| |N(b)|) · Σ_{u∈N(a)} Σ_{v∈N(b)} s(u, v)

with ``s(a, a) = 1`` and decay factor ``C`` (typically 0.8).  On a
heterogeneous network we run it over the union of all edge types (the
classical formulation ignores types), computed by fixed-point iteration on
the normalized adjacency:  ``S ← C · Wᵀ S W`` with the diagonal pinned
to 1.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import MeasureError
from repro.hin.network import HeterogeneousInformationNetwork

__all__ = ["simrank_scores"]


def _global_offsets(network: HeterogeneousInformationNetwork) -> dict[str, int]:
    """Contiguous global index space over all vertex types (sorted order)."""
    offsets: dict[str, int] = {}
    position = 0
    for vertex_type in sorted(network.schema.vertex_types):
        offsets[vertex_type] = position
        position += network.num_vertices(vertex_type)
    return offsets


def _union_adjacency(network: HeterogeneousInformationNetwork) -> sparse.csr_matrix:
    """Type-agnostic adjacency over the global index space."""
    offsets = _global_offsets(network)
    total = network.num_vertices()
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for edge_type in network.schema.edge_types:
        matrix = network.adjacency(edge_type.source, edge_type.target).tocoo()
        row_offset = offsets[edge_type.source]
        col_offset = offsets[edge_type.target]
        rows.extend(int(i) + row_offset for i in matrix.row)
        cols.extend(int(j) + col_offset for j in matrix.col)
        data.extend(float(c) for c in matrix.data)
    return sparse.csr_matrix((data, (rows, cols)), shape=(total, total))


def simrank_scores(
    network: HeterogeneousInformationNetwork,
    *,
    decay: float = 0.8,
    iterations: int = 8,
) -> tuple[np.ndarray, dict[str, int]]:
    """Full SimRank matrix over every vertex (dense) plus type offsets.

    Suitable for the small/medium networks the comparison benches use; the
    matrix is ``n x n`` dense over all vertices.

    Returns
    -------
    (similarity, offsets):
        ``similarity[i, j]`` is SimRank between global vertices ``i`` and
        ``j``; ``offsets[type]`` maps a type to its global index base.
    """
    if not 0.0 < decay < 1.0:
        raise MeasureError(f"decay must be in (0, 1), got {decay}")
    if iterations < 1:
        raise MeasureError(f"iterations must be >= 1, got {iterations}")
    adjacency = _union_adjacency(network)
    total = adjacency.shape[0]
    if total == 0:
        return np.zeros((0, 0)), _global_offsets(network)
    # Column-normalize: W[:, j] distributes over j's in-neighbors.
    degrees = np.asarray(adjacency.sum(axis=0)).ravel()
    inverse = np.zeros_like(degrees)
    nonzero = degrees > 0
    inverse[nonzero] = 1.0 / degrees[nonzero]
    normalized = (adjacency @ sparse.diags(inverse)).tocsc()

    similarity = np.eye(total)
    for __ in range(iterations):
        similarity = decay * (normalized.T @ similarity @ normalized)
        similarity = np.asarray(similarity)
        np.fill_diagonal(similarity, 1.0)
    return similarity, _global_offsets(network)
