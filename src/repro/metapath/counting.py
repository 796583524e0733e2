"""Traversal-based path-instance counting and neighbor vectors.

These functions implement Definitions 5-7 of the paper by walking the
network hop by hop, accumulating path counts in dictionaries.  This is the
definition, executed literally: the ground truth that the sparse-matrix
materialization in :mod:`repro.metapath.materialize` and the engine's
materialization routine (:mod:`repro.engine.strategies`) are tested
against.  Nothing on a query's hot path walks vertex by vertex.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import MetaPathError
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.metapath.metapath import MetaPath

__all__ = [
    "neighbor_counts",
    "neighbor_vector_dense",
    "neighborhood",
    "count_path_instances",
    "enumerate_path_instances",
]


def _check_start(path: MetaPath, start: VertexId) -> None:
    if start.type != path.source:
        raise MetaPathError(
            f"vertex {start} cannot start meta-path {path}: expected type "
            f"{path.source!r}"
        )


def neighbor_counts(
    network: HeterogeneousInformationNetwork,
    path: MetaPath,
    start: VertexId,
) -> dict[int, float]:
    """Sparse neighbor vector of ``start`` along ``path`` as ``{index: count}``.

    This is ``φ_P(start)`` (Definition 7) restricted to its non-zero entries:
    the map from target-type vertex index to the number of path instances of
    ``path`` connecting ``start`` to that vertex.

    The walk is a frontier expansion: the frontier maps vertex index to the
    number of partial paths reaching it; one hop multiplies by parallel-edge
    counts and sums over incoming partial paths.
    """
    _check_start(path, start)
    frontier: dict[int, float] = {start.index: 1.0}
    current_type = path.source
    for next_type in path.types[1:]:
        matrix = network.adjacency(current_type, next_type)
        next_frontier: dict[int, float] = {}
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        for vertex_index, path_count in frontier.items():
            start_ptr, stop_ptr = indptr[vertex_index], indptr[vertex_index + 1]
            for neighbor, edge_count in zip(
                indices[start_ptr:stop_ptr], data[start_ptr:stop_ptr]
            ):
                key = int(neighbor)
                next_frontier[key] = next_frontier.get(key, 0.0) + path_count * edge_count
        frontier = next_frontier
        current_type = next_type
        if not frontier:
            break
    return frontier


def neighbor_vector_dense(
    network: HeterogeneousInformationNetwork,
    path: MetaPath,
    start: VertexId,
) -> np.ndarray:
    """Dense ``φ_P(start)`` over all vertices of the path's target type."""
    counts = neighbor_counts(network, path, start)
    vector = np.zeros(network.num_vertices(path.target), dtype=float)
    for index, count in counts.items():
        vector[index] = count
    return vector


def neighborhood(
    network: HeterogeneousInformationNetwork,
    path: MetaPath,
    start: VertexId,
) -> set[VertexId]:
    """``N_P(start)``: vertices connected to ``start`` by ≥1 instance (Def. 6)."""
    counts = neighbor_counts(network, path, start)
    return {VertexId(path.target, index) for index in counts}


def count_path_instances(
    network: HeterogeneousInformationNetwork,
    path: MetaPath,
    start: VertexId,
    end: VertexId,
) -> float:
    """``|π_P(start, end)|``: number of instances of ``path`` between two vertices."""
    if end.type != path.target:
        raise MetaPathError(
            f"vertex {end} cannot end meta-path {path}: expected type "
            f"{path.target!r}"
        )
    counts = neighbor_counts(network, path, start)
    return counts.get(end.index, 0.0)


def enumerate_path_instances(
    network: HeterogeneousInformationNetwork,
    path: MetaPath,
    start: VertexId,
    end: VertexId | None = None,
    *,
    limit: int | None = None,
) -> Iterator[tuple[VertexId, ...]]:
    """Yield concrete path instances (tuples of vertex ids) of ``path``.

    Parallel edges contribute distinct instances only through their counts in
    :func:`count_path_instances`; here each distinct *vertex sequence* is
    yielded once per unit of multiplicity (so the number of yielded tuples
    matches the path-instance count for integer edge weights).

    Parameters
    ----------
    end:
        When given, only instances terminating at ``end`` are yielded.
    limit:
        Stop after yielding this many instances (safety valve: instance
        counts grow exponentially with path length).
    """
    _check_start(path, start)
    if end is not None and end.type != path.target:
        raise MetaPathError(
            f"vertex {end} cannot end meta-path {path}: expected type "
            f"{path.target!r}"
        )
    yielded = 0

    def walk(position: int, prefix: tuple[VertexId, ...]) -> Iterator[tuple[VertexId, ...]]:
        nonlocal yielded
        if position == len(path.types) - 1:
            if end is None or prefix[-1] == end:
                yield prefix
            return
        current = prefix[-1]
        next_type = path.types[position + 1]
        for neighbor_index, count in sorted(
            network.neighbor_counts(current, next_type).items()
        ):
            multiplicity = int(round(count))
            neighbor = VertexId(next_type, neighbor_index)
            for _ in range(max(multiplicity, 1)):
                yield from walk(position + 1, prefix + (neighbor,))

    for instance in walk(0, (start,)):
        yield instance
        yielded += 1
        if limit is not None and yielded >= limit:
            return
