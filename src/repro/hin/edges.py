"""Canonical edge iteration for serialization and copying.

Replaying :meth:`HeterogeneousInformationNetwork.add_edge` mirrors
symmetric relations automatically, so a serializer must emit each logical
edge exactly once — in a form whose replay reproduces every entry it emits
bit for bit.  (An entry left to its mirror comes back as the *mirror's*
float: the original summed its parallel edges itself, in whatever order
scipy's unstable duplicate sort left a row of 16 or more of them, so for
counts whose sums round — not integers, not dyadic — it can sit a few ulps
away.)  The rules, per relation:

* **directed** (``symmetric=False``): every stored entry is its own logical
  edge; emit all of them (both same-type and cross-type directed relations);
* **symmetric, different types**: the reverse matrix is the mirror; emit
  the canonical direction only;
* **symmetric, same type**: the single matrix holds both mirror entries;
  emit the upper triangle (``i < j``), and halve diagonal entries
  (``add_edge(u, u, c)`` stores ``2c`` because the mirror lands in the same
  cell).

:func:`canonical_edge_arrays` is the single implementation, one batch of
arrays per relation, used by JSON/TSV persistence and subnetwork induction;
:func:`canonical_edges` iterates it edge by edge for callers that want
:class:`VertexId` triples (networkx export).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.hin.network import HeterogeneousInformationNetwork, VertexId

__all__ = ["canonical_edge_arrays", "canonical_edges"]


def canonical_edge_arrays(
    network: HeterogeneousInformationNetwork,
) -> Iterator[tuple[str, str, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(source_type, target_type, rows, cols, counts)`` per relation.

    Replaying means calling ``add_edges(source_type, target_type, rows,
    cols, counts)`` for every batch (or ``add_edge`` for every position of
    it) on an empty network with the same schema and vertices; afterwards
    every emitted entry equals the original exactly, and every mirrored one
    equals its emitted twin (see the module docstring).
    """
    schema = network.schema
    seen_pairs: set[tuple[str, str]] = set()
    for edge_type in sorted(schema.edge_types, key=str):
        symmetric = schema.is_symmetric(edge_type.source, edge_type.target)
        if symmetric and (edge_type.target, edge_type.source) in seen_pairs:
            continue
        seen_pairs.add((edge_type.source, edge_type.target))
        matrix = network.adjacency(edge_type.source, edge_type.target).tocoo()
        rows, cols, counts = matrix.row, matrix.col, matrix.data
        if symmetric and edge_type.source == edge_type.target:
            upper = rows <= cols  # the lower triangle is the mirror
            rows, cols, counts = rows[upper], cols[upper], counts[upper]
            # add_edge doubles self-loops on replay
            counts = np.where(rows == cols, counts / 2.0, counts)
        yield edge_type.source, edge_type.target, rows, cols, counts


def canonical_edges(
    network: HeterogeneousInformationNetwork,
) -> Iterator[tuple[VertexId, VertexId, float]]:
    """Yield ``(u, v, count)`` triples whose replay reproduces the network:
    :func:`canonical_edge_arrays`, one edge at a time."""
    for source_type, target_type, rows, cols, counts in canonical_edge_arrays(network):
        for i, j, count in zip(rows.tolist(), cols.tolist(), counts.tolist()):
            yield VertexId(source_type, i), VertexId(target_type, j), count
