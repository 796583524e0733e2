"""Personalized PageRank over heterogeneous networks.

The second similarity the paper's Section 5.2 contrasts with PathSim.
Computed by power iteration of

    p ← (1 - α) · e_s + α · Wᵀ p

where ``W`` is the row-stochastic union adjacency (all edge types) and
``e_s`` the restart distribution concentrated on the seed vertex.  The
stationary ``p[v]`` is the personalized PageRank of ``v`` w.r.t. the seed.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import MeasureError
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.baselines.simrank import _global_offsets, _union_adjacency

__all__ = ["personalized_pagerank"]


def personalized_pagerank(
    network: HeterogeneousInformationNetwork,
    seed: VertexId,
    *,
    damping: float = 0.85,
    iterations: int = 50,
    tolerance: float = 1e-10,
) -> tuple[np.ndarray, dict[str, int]]:
    """PPR vector of ``seed`` over every vertex, plus type offsets.

    Dangling vertices (no out-edges) teleport back to the seed, preserving
    the probability mass.

    Returns
    -------
    (scores, offsets):
        ``scores`` sums to 1 over the global index space;
        ``offsets[type]`` maps a type to its global index base.
    """
    if not 0.0 < damping < 1.0:
        raise MeasureError(f"damping must be in (0, 1), got {damping}")
    if iterations < 1:
        raise MeasureError(f"iterations must be >= 1, got {iterations}")
    offsets = _global_offsets(network)
    adjacency = _union_adjacency(network)
    total = adjacency.shape[0]
    seed_index = offsets[seed.type] + seed.index
    if not 0 <= seed_index < total:
        raise MeasureError(f"seed {seed} is outside the network")

    out_degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inverse = np.zeros_like(out_degrees)
    nonzero = out_degrees > 0
    inverse[nonzero] = 1.0 / out_degrees[nonzero]
    walk = (sparse.diags(inverse) @ adjacency).tocsr()
    dangling = ~nonzero

    restart = np.zeros(total)
    restart[seed_index] = 1.0
    scores = restart.copy()
    for __ in range(iterations):
        dangling_mass = scores[dangling].sum()
        updated = (
            damping * (walk.T @ scores)
            + (damping * dangling_mass + (1.0 - damping)) * restart
        )
        if np.abs(updated - scores).sum() < tolerance:
            scores = updated
            break
        scores = updated
    return scores, offsets
