"""PathSim meta-path similarity search (Sun, Han, Yan, Yu, Wu — VLDB 2011).

``PathSim(a, b) = 2·|π_Psym(a, b)| / (|π_Psym(a, a)| + |π_Psym(b, b)|)``
for a symmetric meta-path ``Psym``.  The paper's Section 5 contrasts it
with normalized connectivity: :func:`pathsim_matrix` scores every pair of
stacked neighbor vectors, and :func:`pathsim_top_k` is the top-k
similarity search the original PathSim paper performs.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.connectivity import visibility
from repro.exceptions import MeasureError
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.metapath.materialize import materialize
from repro.metapath.metapath import MetaPath

__all__ = ["pathsim_matrix", "pathsim_top_k"]


def pathsim_matrix(
    phi: sparse.spmatrix | np.ndarray,
) -> np.ndarray:
    """Dense pairwise PathSim matrix over stacked neighbor vectors.

    Entry ``(i, j)`` is PathSim between row i and row j.  Rows with zero
    visibility have similarity 0 with everything (including themselves).
    """
    matrix = sparse.csr_matrix(phi) if not sparse.issparse(phi) else phi.tocsr()
    chi = np.asarray((matrix @ matrix.T).todense(), dtype=float)
    vis = chi.diagonal().copy()
    denominators = vis[:, None] + vis[None, :]
    result = np.zeros_like(chi)
    nonzero = denominators > 0
    result[nonzero] = 2.0 * chi[nonzero] / denominators[nonzero]
    return result


def pathsim_top_k(
    network: HeterogeneousInformationNetwork,
    path: MetaPath,
    query: VertexId,
    k: int = 10,
    *,
    include_self: bool = False,
) -> list[tuple[VertexId, float]]:
    """Top-k most PathSim-similar vertices to ``query`` along ``path``.

    This is the VLDB 2011 similarity-search task.  Ties break by vertex
    index for determinism.
    """
    if query.type != path.source:
        raise MeasureError(
            f"query vertex must have the meta-path source type {path.source!r}"
        )
    if k <= 0:
        raise MeasureError(f"k must be positive, got {k}")
    count_matrix = materialize(network, path)
    phi_query = count_matrix.getrow(query.index)
    vis_query = visibility(phi_query)
    # χ(query, ·) for every vertex of the source type in one product.
    chi = np.asarray((count_matrix @ phi_query.T).todense()).ravel()
    vis_all = np.asarray(count_matrix.multiply(count_matrix).sum(axis=1)).ravel()
    denominators = vis_all + vis_query
    scores = np.zeros_like(chi)
    nonzero = denominators > 0
    scores[nonzero] = 2.0 * chi[nonzero] / denominators[nonzero]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    results: list[tuple[VertexId, float]] = []
    for index in order:
        if not include_self and index == query.index:
            continue
        results.append((VertexId(path.source, index), float(scores[index])))
        if len(results) == k:
            break
    return results
