"""Interoperability with :mod:`networkx`.

Converts between :class:`~repro.hin.network.HeterogeneousInformationNetwork`
and ``networkx.MultiGraph``/``Graph`` objects so users can bring existing
graphs into the query framework, or take a HIN out for visualization and
graph algorithms.

Conventions for the networkx side:

* node keys are ``(type, name)`` tuples, and every node carries
  ``vertex_type`` and ``name`` attributes (plus any HIN vertex attributes);
* parallel-edge multiplicity is carried in an edge ``count`` attribute
  (summed when exporting to a plain ``Graph``).

``networkx`` is an optional dependency (the ``interop`` extra): each
function imports it when called, so importing :mod:`repro` never pays for
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import NetworkError, SchemaError
from repro.hin.edges import canonical_edges
from repro.hin.network import HeterogeneousInformationNetwork
from repro.hin.schema import NetworkSchema

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_networkx", "from_networkx", "infer_schema_from_networkx"]


def to_networkx(network: HeterogeneousInformationNetwork) -> nx.Graph:
    """Export a HIN to an undirected ``networkx.Graph``.

    Each symmetric relation is exported once; multiplicities land in the
    ``count`` edge attribute.
    """
    import networkx as nx

    schema = network.schema
    directed = [
        str(et)
        for et in schema.edge_types
        if not schema.is_symmetric(et.source, et.target)
    ]
    if directed:
        raise NetworkError(
            "to_networkx exports undirected graphs; the schema has directed "
            f"relations: {sorted(directed)}"
        )
    graph = nx.Graph()
    for vertex_type in sorted(schema.vertex_types):
        for vertex_id in network.vertices(vertex_type):
            vertex = network.vertex(vertex_id)
            graph.add_node(
                (vertex_type, vertex.name),
                vertex_type=vertex_type,
                name=vertex.name,
                **vertex.attributes,
            )
    for vertex_u, vertex_v, count in canonical_edges(network):
        u = (vertex_u.type, network.vertex_name(vertex_u))
        v = (vertex_v.type, network.vertex_name(vertex_v))
        if graph.has_edge(u, v):
            graph[u][v]["count"] += count
        else:
            graph.add_edge(u, v, count=count)
    return graph


def infer_schema_from_networkx(graph: nx.Graph) -> NetworkSchema:
    """Infer a :class:`NetworkSchema` from node ``vertex_type`` attributes.

    Every distinct ``vertex_type`` becomes a vertex type; every observed
    (type, type) edge pair becomes a symmetric edge type.

    Raises
    ------
    SchemaError
        If any node lacks a ``vertex_type`` attribute.
    """
    schema = NetworkSchema()
    for node, attributes in graph.nodes(data=True):
        vertex_type = attributes.get("vertex_type")
        if vertex_type is None:
            raise SchemaError(
                f"node {node!r} has no 'vertex_type' attribute; set one on "
                "every node (or convert with to_networkx conventions)"
            )
        schema.add_vertex_type(vertex_type)
    for u, v in graph.edges():
        schema.add_edge_type(
            graph.nodes[u]["vertex_type"], graph.nodes[v]["vertex_type"]
        )
    return schema


def from_networkx(
    graph: nx.Graph,
    schema: NetworkSchema | None = None,
) -> HeterogeneousInformationNetwork:
    """Import a typed ``networkx`` graph into a HIN.

    Nodes must carry a ``vertex_type`` attribute; the node's display name
    is its ``name`` attribute when present, else ``str(node)``.  Edge
    multiplicity is read from the ``count`` attribute (default 1); for
    ``MultiGraph`` inputs, parallel edges accumulate.

    Parameters
    ----------
    schema:
        Schema to validate against; inferred from the graph when omitted.
    """
    if schema is None:
        schema = infer_schema_from_networkx(graph)
    network = HeterogeneousInformationNetwork(schema)

    def describe(node) -> tuple[str, str, dict]:
        attributes = dict(graph.nodes[node])
        vertex_type = attributes.pop("vertex_type", None)
        if vertex_type is None:
            raise NetworkError(f"node {node!r} has no 'vertex_type' attribute")
        name = attributes.pop("name", None)
        if name is None:
            name = str(node)
        return vertex_type, name, attributes

    for node in graph.nodes():
        vertex_type, name, attributes = describe(node)
        network.add_vertex(vertex_type, name, attributes)

    if graph.is_multigraph():
        edge_iterator = (
            (u, v, data.get("count", 1.0))
            for u, v, data in graph.edges(data=True)
        )
    else:
        edge_iterator = (
            (u, v, data.get("count", 1.0)) for u, v, data in graph.edges(data=True)
        )
    for u, v, count in edge_iterator:
        u_type, u_name, __ = describe(u)
        v_type, v_name, __ = describe(v)
        network.add_edge(
            network.find_vertex(u_type, u_name),
            network.find_vertex(v_type, v_name),
            float(count),
        )
    return network
