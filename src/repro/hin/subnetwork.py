"""Induced subnetworks: slice a HIN by per-type vertex predicates.

Analysts rarely query a whole corpus: "DBLP since 2010", "only the hosts in
this enclave".  :func:`induced_subnetwork` keeps the vertices selected by
per-type predicates (or an explicit vertex set) and every edge whose two
endpoints survive, preserving parallel-edge counts and attributes.

Combined with WHERE attribute predicates this gives two slicing levels:
subnetworks re-scope *the data* (all path counting changes), while WHERE
re-scopes *candidate/reference sets* against the full data.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from repro.exceptions import NetworkError
from repro.hin.edges import canonical_edge_arrays
from repro.hin.network import HeterogeneousInformationNetwork, Vertex, VertexId

__all__ = ["induced_subnetwork", "slice_by_attribute"]


def induced_subnetwork(
    network: HeterogeneousInformationNetwork,
    keep: Mapping[str, Callable[[Vertex], bool]] | None = None,
    *,
    vertices: Iterable[VertexId] | None = None,
) -> HeterogeneousInformationNetwork:
    """The subnetwork induced by the selected vertices.

    Parameters
    ----------
    keep:
        Per-vertex-type predicates over full :class:`Vertex` records.
        Types not mentioned keep all their vertices.  Mutually exclusive
        with ``vertices``.
    vertices:
        An explicit vertex set to keep (types not represented keep nothing
        — an explicit set is exhaustive).

    Returns
    -------
    A new network over the same schema; vertex indices are renumbered but
    names and attributes are preserved.
    """
    if (keep is None) == (vertices is None):
        raise NetworkError("provide exactly one of `keep` or `vertices`")

    schema = network.schema
    kept: dict[str, list[VertexId]] = {t: [] for t in schema.vertex_types}
    if vertices is not None:
        for vertex_id in vertices:
            network.vertex_name(vertex_id)  # raises for an id the network lacks
            kept[vertex_id.type].append(vertex_id)
        for vertex_type in kept:
            kept[vertex_type] = sorted(set(kept[vertex_type]))
    else:
        for vertex_type in schema.vertex_types:
            predicate = keep.get(vertex_type)
            for vertex_id in network.vertices(vertex_type):
                if predicate is None or predicate(network.vertex(vertex_id)):
                    kept[vertex_type].append(vertex_id)

    result = HeterogeneousInformationNetwork(schema)
    # Per type: old index -> new index, -1 where the vertex was dropped.
    renumber: dict[str, np.ndarray] = {}
    for vertex_type in sorted(schema.vertex_types):
        names = network.vertex_names(vertex_type)
        attributes = network.vertex_attributes(vertex_type)
        old = [vertex_id.index for vertex_id in kept[vertex_type]]
        result.add_vertices(
            vertex_type, [names[i] for i in old], [attributes[i] for i in old]
        )
        renumber[vertex_type] = np.full(len(names), -1, dtype=np.int64)
        renumber[vertex_type][old] = np.arange(len(old))

    for source_type, target_type, rows, cols, counts in canonical_edge_arrays(network):
        sources = renumber[source_type][rows]
        targets = renumber[target_type][cols]
        survives = (sources >= 0) & (targets >= 0)
        result.add_edges(
            source_type,
            target_type,
            sources[survives],
            targets[survives],
            counts[survives],
        )
    return result


def slice_by_attribute(
    network: HeterogeneousInformationNetwork,
    vertex_type: str,
    attribute: str,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
    drop_missing: bool = True,
) -> HeterogeneousInformationNetwork:
    """Convenience: keep ``vertex_type`` vertices whose numeric ``attribute``
    lies in ``[minimum, maximum]`` (either bound optional).

    ``drop_missing`` controls vertices without the attribute.  The common
    call is temporal slicing::

        recent = slice_by_attribute(net, "paper", "year", minimum=2010)
    """
    if minimum is None and maximum is None:
        raise NetworkError("provide at least one of minimum/maximum")

    def predicate(vertex: Vertex) -> bool:
        value = vertex.attributes.get(attribute)
        if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
            return not drop_missing
        if minimum is not None and value < minimum:
            return False
        if maximum is not None and value > maximum:
            return False
        return True

    return induced_subnetwork(network, {vertex_type: predicate})
