"""Sparse-matrix materialization of meta-paths.

The count matrix of meta-path ``P = (T0 T1 ... Tl)`` is the product of the
per-edge-type adjacency matrices:

    M_P = A[T0,T1] @ A[T1,T2] @ ... @ A[T(l-1),Tl]

so that ``M_P[i, j] = |π_P(vi, vj)|`` and ``φ_P(vi)`` is row ``i`` of
``M_P``.  Section 6.2 of the paper observes that any meta-path decomposes
into a chain of length-2 meta-paths (plus one single hop when the length is
odd), which is what lets the PM/SPM indexes cover arbitrary paths while only
storing length-2 products.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import InexactCountError, MetaPathError
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.metapath.metapath import MetaPath

__all__ = [
    "materialize",
    "materialize_row",
    "materialize_segment",
    "connectivity_sums",
    "decompose_length2",
    "check_exact",
]

#: Share of a hop's edges up to which :func:`connectivity_sums` visits the
#: frontier's edges one by one; beyond it one sweep over the whole hop is
#: cheaper (a gathered edge costs about four times a swept one).
PUSH_SHARE = 0.25

#: 2⁵³: below it every path count, partial sum and product is an exact
#: integer in float64, so any summation order gives the same number.
EXACT_LIMIT = float(2**53)


def check_exact(values: np.ndarray, path: MetaPath, what: str) -> None:
    """Refuse ``values`` of ``path`` once any reaches :data:`EXACT_LIMIT`.

    One ``max`` over a vector just formed.  Every term is a non-negative
    integer, so a partial sum never exceeds its final value and rounding is
    monotone: a vector below the limit was formed exactly.

    Raises
    ------
    InexactCountError
        Naming ``path`` and ``what`` reached the limit.
    """
    if values.size and values.max() >= EXACT_LIMIT:
        raise InexactCountError(
            f"{what} of {path} reach 2**53, past which float64 holds no "
            "exact integer count; the answer would not be exact"
        )


def materialize(
    network: HeterogeneousInformationNetwork,
    path: MetaPath,
) -> sparse.csr_matrix:
    """The full count matrix ``M_P`` of ``path`` over ``network``.

    A length-0 path (single type) materializes to the identity: the only
    instance of ``(T)`` starting at ``v`` is ``v`` itself.

    Raises
    ------
    MetaPathError
        If any step of ``path`` is not a registered edge type.
    """
    path.validate(network.schema)
    size = network.num_vertices(path.source)
    if path.length == 0:
        return sparse.identity(size, dtype=float, format="csr")
    product: sparse.csr_matrix | None = None
    for left, right in zip(path.types, path.types[1:]):
        step = network.adjacency(left, right)
        product = step if product is None else product @ step
    return product.tocsr()


def _row_edges(matrix: sparse.csr_matrix, rows: np.ndarray, counts: np.ndarray):
    """Positions in ``matrix.indices`` / ``.data`` of the elements of ``rows``."""
    ends = np.cumsum(counts)
    first = matrix.indptr[rows] - (ends - counts)
    return np.repeat(first, counts) + np.arange(ends[-1] if len(ends) else 0)


def _push(hops, size, starts, on_hop):
    """``1ᵀ_starts · A₁⋯A_L`` and, per hop, the frontier it was pushed from
    (``None`` from the first hop on that was swept whole).  A swept hop
    multiplies by its transpose, formed here when the hop holds none."""
    vector = np.bincount(starts, minlength=size).astype(np.float64)
    frontiers = []
    swept = False
    for matrix, transposed in hops:
        if not swept:
            frontier = np.flatnonzero(vector != 0)
            counts = matrix.indptr[frontier + 1] - matrix.indptr[frontier]
            swept = counts.sum() > PUSH_SHARE * matrix.nnz
        on_hop(np.count_nonzero(vector))
        frontiers.append(None if swept else frontier)
        if swept:
            vector = (matrix.T if transposed is None else transposed) @ vector
            continue
        edges = _row_edges(matrix, frontier, counts)
        vector = np.bincount(
            matrix.indices[edges],
            weights=matrix.data[edges] * np.repeat(vector[frontier], counts),
            minlength=matrix.shape[1],
        )
    return vector, frontiers


def _adjacency_hop(network, left, right):
    matrix = network.adjacency(left, right)
    # A symmetric relation stores its transpose as the reverse adjacency.
    if network.schema.is_symmetric(left, right):
        return matrix, network.adjacency(right, left)
    return matrix, None


def _hops(network, path, stored):
    """``(matrix, transpose)`` per hop: one over each length-2 segment
    ``stored`` holds a matrix ``M`` for, two adjacency hops over any other,
    one over the odd tail.  The transpose is ``None`` unless the network
    stores it: a hop that is only pushed never needs one."""
    segments, tail = decompose_length2(path)
    hops = []
    for segment in segments:
        matrix = stored(segment)
        if matrix is not None:
            hops.append((matrix, None))
            continue
        first, middle, last = segment.types
        hops.append(_adjacency_hop(network, first, middle))
        hops.append(_adjacency_hop(network, middle, last))
    if tail is not None:
        hops.append(_adjacency_hop(network, *tail.types))
    return hops


def connectivity_sums(
    network: HeterogeneousInformationNetwork,
    path: MetaPath,
    candidates: np.ndarray,
    reference: np.ndarray,
    on_hop=lambda frontier_size: None,
    stored=lambda segment: None,
) -> np.ndarray:
    """``Σ_r χ(v, r) = φ_P(v) · Σ_r φ_P(r)`` per candidate, without ``M_P``.

    Paper Equation 1's numerators as two vector passes over the path's
    hops, so no matrix product is formed here.  **Push**: the reference
    indicator (multiplicities kept) goes forward into ``s = 1ᵀ_Sr · M_P``.
    **Pull**: ``M_P · s`` comes back, computed only at the rows the
    candidates reach at each level — for ``Sc = Sr`` the frontiers the push
    already found.  A hop is frontier-adaptive: while the edges leaving the
    frontier are at most :data:`PUSH_SHARE` of the hop's, only they are
    visited; from then on a hop is one matrix-vector product.  Counts are
    integers below 2⁵³, so every order of summation gives the same float64.
    The numerators are checked against that bound (:func:`check_exact`),
    which covers every value a hop forms on the way: each one read later
    reaches some candidate's numerator with an integer weight of at least
    1, so it is at most that numerator.  A count past the bound raises
    instead of answering.

    The hops are those of :func:`decompose_length2`: a length-2 segment
    for which ``stored(segment)`` returns its count matrix ``M`` (a PM
    index's ``full_matrix``) is **one** hop over ``M``, any other segment
    two adjacency hops, and the odd tail one.  A sweep over ``M`` multiplies
    by ``M.T``, whether or not the segment's relations are symmetric.

    ``on_hop`` is called before each hop with the number of operand rows
    it is about to fetch.  Indices must be in range for ``path.source``; an
    illegal ``path`` raises :class:`~repro.exceptions.MetaPathError`.
    """
    path.validate(network.schema)
    hops = _hops(network, path, stored)
    size = network.num_vertices(path.source)
    vector, frontiers = _push(hops, size, reference, on_hop)
    if not np.array_equal(candidates, reference):
        _, frontiers = _push(hops, size, candidates, on_hop)
    for (matrix, _), rows in zip(reversed(hops), reversed(frontiers)):
        on_hop(matrix.shape[0] if rows is None else len(rows))
        if rows is None:
            vector = matrix @ vector
            continue
        counts = matrix.indptr[rows + 1] - matrix.indptr[rows]
        edges = _row_edges(matrix, rows, counts)
        vector = np.bincount(
            np.repeat(rows, counts),
            weights=matrix.data[edges] * vector[matrix.indices[edges]],
            minlength=matrix.shape[0],
        )
    numerators = vector[candidates]
    check_exact(numerators, path, "numerators")
    return numerators


def materialize_segment(
    network: HeterogeneousInformationNetwork,
    segment: MetaPath,
) -> sparse.csr_matrix:
    """The full count matrix of one **length-2** segment (``A₁ @ A₂``).

    The unit the PM/SPM indexes and the serving layer's shared sub-path
    cache store: any meta-path decomposes into these segments
    (:func:`decompose_length2`), so one cached segment product serves every
    query whose path contains the segment.  Because path counts are
    non-negative integers well below 2⁵³, the float64 product is exact —
    multiplying a selection block by this matrix yields byte-identical
    rows to chaining the two hops directly.

    Raises
    ------
    MetaPathError
        If ``segment`` does not have exactly two hops (or fails schema
        validation).
    """
    if segment.length != 2:
        raise MetaPathError(
            f"materialize_segment expects a 2-hop segment, got {segment} "
            f"(length {segment.length})"
        )
    return materialize(network, segment)


def materialize_row(
    network: HeterogeneousInformationNetwork,
    path: MetaPath,
    start: VertexId,
) -> sparse.csr_matrix:
    """``φ_P(start)`` as a 1 x n sparse row, computed by vector-matrix chain.

    Unlike :func:`materialize`, this never forms intermediate full products:
    it starts from the indicator row of ``start`` and multiplies through the
    edge matrices, which is how the engine computes single neighbor vectors
    when a whole-matrix product is not cached.
    """
    if start.type != path.source:
        raise MetaPathError(
            f"vertex {start} cannot start meta-path {path}: expected type "
            f"{path.source!r}"
        )
    size = network.num_vertices(path.source)
    row = sparse.csr_matrix(
        ([1.0], ([0], [start.index])), shape=(1, size), dtype=float
    )
    for left, right in zip(path.types, path.types[1:]):
        row = row @ network.adjacency(left, right)
    return row.tocsr()


def decompose_length2(path: MetaPath) -> tuple[list[MetaPath], MetaPath | None]:
    """Split ``path`` into length-2 segments plus an optional length-1 tail.

    Returns ``(segments, tail)`` where each segment has exactly two hops and
    ``tail`` is a single-hop meta-path when ``path`` has odd length, else
    ``None``.  Concatenating ``segments + [tail]`` reproduces ``path``.
    This mirrors the decomposition in Section 6.2 that PM/SPM indexes use.

    >>> segments, tail = decompose_length2(MetaPath.parse("a.p.v.p.t"))
    >>> [str(s) for s in segments]
    ['a.p.v', 'v.p.t']
    >>> tail is None
    True
    """
    if path.length == 0:
        return [], None
    segments: list[MetaPath] = []
    position = 0
    while path.length - position >= 2:
        segments.append(MetaPath(path.types[position:position + 3]))
        position += 2
    tail: MetaPath | None = None
    if position < path.length:
        tail = MetaPath(path.types[position:position + 2])
    return segments, tail
