"""Connectivity, visibility, and normalized connectivity (paper §5.1).

All functions operate on *neighbor vectors* ``φ_P(v)`` (Definition 7).  For
feature meta-path ``P`` and its symmetric closure ``Psym = P·P⁻¹``:

* connectivity  ``χ(a, b) = |π_Psym(a, b)| = φ(a) · φ(b)``
* visibility    ``χ(a, a) = ‖φ(a)‖²`` — a vertex's potential connectivity
* normalized connectivity (Definition 9)
  ``κ(a, b) = χ(a, b) / χ(a, a)``

``κ`` is deliberately asymmetric: it is the random-walk probability of
reaching ``b`` from ``a`` along ``Psym``, normalized by the probability of
returning to ``a``.  The paper's Figure 2 example (χ = 28, κ = 0.5 vs 2.0)
is reproduced in the test suite.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import MeasureError

__all__ = [
    "connectivity",
    "visibility",
    "visibilities",
    "normalized_connectivity",
    "connectivity_matrix",
]

ArrayLike = "np.ndarray | sparse.spmatrix"


def _as_row(vector: np.ndarray | sparse.spmatrix) -> sparse.csr_matrix:
    """Coerce a 1-D dense array or 1 x n sparse matrix into a CSR row."""
    if sparse.issparse(vector):
        row = vector.tocsr()
        if row.shape[0] != 1:
            raise MeasureError(
                f"expected a single row vector, got shape {row.shape}"
            )
        return row
    array = np.asarray(vector, dtype=float)
    if array.ndim != 1:
        raise MeasureError(f"expected a 1-D vector, got shape {array.shape}")
    return sparse.csr_matrix(array)


def connectivity(
    phi_a: np.ndarray | sparse.spmatrix,
    phi_b: np.ndarray | sparse.spmatrix,
) -> float:
    """``χ(a, b)``: path-instance count of ``Psym`` between ``a`` and ``b``.

    Computed as the inner product of the two neighbor vectors.
    """
    row_a = _as_row(phi_a)
    row_b = _as_row(phi_b)
    if row_a.shape[1] != row_b.shape[1]:
        raise MeasureError(
            f"neighbor vectors have different dimensions: {row_a.shape[1]} "
            f"vs {row_b.shape[1]}"
        )
    return float((row_a @ row_b.T)[0, 0])


def visibility(phi: np.ndarray | sparse.spmatrix) -> float:
    """``χ(a, a) = ‖φ(a)‖²``: the vertex's potential connectivity."""
    row = _as_row(phi)
    return float(row.multiply(row).sum())


def visibilities(phi_matrix: sparse.spmatrix | np.ndarray) -> np.ndarray:
    """Row-wise visibilities of a stacked neighbor-vector matrix.

    A sparse matrix is reduced over its stored elements, ``data * data``
    summed row by row — which is ``‖φ‖²`` only when no entry is stored
    twice (``(a + b)² ≠ a² + b²``), so duplicates are summed first.
    """
    if sparse.issparse(phi_matrix):
        csr = phi_matrix.tocsr()
        if not csr.has_canonical_format:
            csr = csr.copy()
            csr.sum_duplicates()
        squared = sparse.csr_matrix(
            (csr.data * csr.data, csr.indices, csr.indptr), shape=csr.shape
        )
        return squared @ np.ones(csr.shape[1])
    dense = np.asarray(phi_matrix, dtype=float)
    return np.einsum("ij,ij->i", dense, dense)


def normalized_connectivity(
    phi_a: np.ndarray | sparse.spmatrix,
    phi_b: np.ndarray | sparse.spmatrix,
) -> float:
    """``κ(a, b) = χ(a, b) / χ(a, a)`` (Definition 9).

    A vertex with zero visibility has no ``Psym`` instances at all; the
    random-walk interpretation degenerates, and we return 0.0 (maximally
    disconnected), which keeps such vertices at the outlying end of the
    NetOut ranking.
    """
    denominator = visibility(phi_a)
    if denominator == 0.0:
        return 0.0
    return connectivity(phi_a, phi_b) / denominator


def connectivity_matrix(
    phi_candidates: sparse.spmatrix | np.ndarray,
    phi_reference: sparse.spmatrix | np.ndarray,
) -> np.ndarray:
    """Dense ``χ`` matrix: entry ``(i, j)`` is χ(candidate_i, reference_j).

    This is the naive pairwise building block (O(|Sc|·|Sr|) output); the
    vectorized measures avoid forming it.
    """
    if sparse.issparse(phi_candidates) or sparse.issparse(phi_reference):
        left = sparse.csr_matrix(phi_candidates)
        right = sparse.csr_matrix(phi_reference)
        return np.asarray((left @ right.T).todense(), dtype=float)
    return np.asarray(phi_candidates, dtype=float) @ np.asarray(phi_reference, dtype=float).T
