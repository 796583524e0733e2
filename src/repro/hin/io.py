"""Persistence for heterogeneous information networks.

Two formats are supported:

* **JSON** — a single self-describing document with the schema, vertex
  registries (including attributes), and edge lists.  Round-trips exactly.
* **TSV edge lists** — the common interchange format for HIN datasets: one
  file with ``source_type  source_name  target_type  target_name  [count]``
  per line, plus an accompanying schema.  Attributes are not preserved.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from repro.exceptions import NetworkError
from repro.hin.edges import canonical_edge_arrays
from repro.hin.network import HeterogeneousInformationNetwork
from repro.hin.schema import NetworkSchema

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_json",
    "load_json",
    "write_edge_list",
    "read_edge_list",
]

_FORMAT_VERSION = 2


def network_to_dict(network: HeterogeneousInformationNetwork) -> dict:
    """Serialize a network to a JSON-compatible dictionary."""
    schema = network.schema
    vertices = {
        vertex_type: [
            {"name": name, "attributes": attributes} if attributes else {"name": name}
            for name, attributes in zip(
                network.vertex_names(vertex_type),
                network.vertex_attributes(vertex_type),
            )
        ]
        for vertex_type in sorted(schema.vertex_types)
    }

    edges = [
        {
            "source_type": source_type,
            "source": source,
            "target_type": target_type,
            "target": target,
            "count": count,
        }
        for source_type, target_type, rows, cols, counts in canonical_edge_arrays(network)
        for source, target, count in zip(rows.tolist(), cols.tolist(), counts.tolist())
    ]

    return {
        "format_version": _FORMAT_VERSION,
        "schema": {
            "vertex_types": sorted(schema.vertex_types),
            "edge_types": sorted(
                (
                    {
                        "source": et.source,
                        "target": et.target,
                        "symmetric": schema.is_symmetric(et.source, et.target),
                    }
                    for et in schema.edge_types
                ),
                key=lambda e: (e["source"], e["target"]),
            ),
        },
        "vertices": vertices,
        "edges": edges,
    }


def network_from_dict(
    data: dict,
    *,
    storage: str = "ram",
    storage_dir: "str | None" = None,
) -> HeterogeneousInformationNetwork:
    """Deserialize a network produced by :func:`network_to_dict`.

    ``storage="mmap"`` rebuilds adjacency into read-only memmap files (see
    :mod:`repro.hin.storage`) — the ``repro serve --storage mmap`` load
    path for networks larger than comfortable RAM.
    """
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise NetworkError(f"unsupported network format version: {version!r}")
    schema = NetworkSchema(data["schema"]["vertex_types"])
    for entry in data["schema"]["edge_types"]:
        # Every registered direction is listed; symmetric relations carry
        # the flag so edge insertions mirror correctly after reload.
        schema.add_edge_type(
            entry["source"], entry["target"], symmetric=entry["symmetric"]
        )
    network = HeterogeneousInformationNetwork(
        schema, storage=storage, storage_dir=storage_dir
    )
    # Edge records address vertices by position, so each type's registry is
    # installed whole (a repeated name is refused, not merged) ...
    for vertex_type, records in data["vertices"].items():
        network.add_vertices(
            vertex_type,
            [record["name"] for record in records],
            [record.get("attributes") for record in records],
        )
    # ... and the records of each relation go in as one batch of arrays.
    # Consecutive runs are gathered first: a canonical document is one run
    # per relation, so the per-record work is three list comprehensions.
    relation = itemgetter("source_type", "target_type")
    batches: dict[tuple[str, str], list[dict]] = {}
    for key, run in groupby(data["edges"], key=relation):
        batches.setdefault(key, []).extend(run)
    for (source_type, target_type), records in batches.items():
        network.add_edges(
            source_type,
            target_type,
            [record["source"] for record in records],
            [record["target"] for record in records],
            [record.get("count", 1.0) for record in records],
        )
    return network


def save_json(network: HeterogeneousInformationNetwork, path: str | Path) -> None:
    """Write ``network`` to ``path`` as JSON."""
    payload = network_to_dict(network)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_json(
    path: str | Path,
    *,
    storage: str = "ram",
    storage_dir: "str | None" = None,
) -> HeterogeneousInformationNetwork:
    """Read a network previously written by :func:`save_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return network_from_dict(
            json.load(handle), storage=storage, storage_dir=storage_dir
        )


def write_edge_list(network: HeterogeneousInformationNetwork, handle: TextIO) -> int:
    """Write tab-separated edges to an open text handle.

    Returns the number of lines written.  Symmetric relations are written
    once, in the canonical (lexicographically smaller source type) direction.
    """
    lines = 0
    for source_type, target_type, rows, cols, counts in canonical_edge_arrays(network):
        source_names = network.vertex_names(source_type)
        target_names = network.vertex_names(target_type)
        for i, j, count in zip(rows.tolist(), cols.tolist(), counts.tolist()):
            handle.write(
                f"{source_type}\t{source_names[i]}\t"
                f"{target_type}\t{target_names[j]}\t{count:g}\n"
            )
        lines += len(counts)
    return lines


def read_edge_list(
    handle: TextIO, schema: NetworkSchema
) -> HeterogeneousInformationNetwork:
    """Read a tab-separated edge list into a new network over ``schema``.

    Vertices are numbered per type in order of first appearance (source
    before target on a line).
    """
    indices: dict[str, dict[str, int]] = {}
    batches: dict[tuple[str, str], tuple[list[int], list[int], list[float]]] = {}
    for line_number, line in enumerate(handle, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (4, 5):
            raise NetworkError(
                f"edge list line {line_number}: expected 4 or 5 tab-separated "
                f"fields, got {len(fields)}"
            )
        source_type, source_name, target_type, target_name = fields[:4]
        source_index = indices.setdefault(source_type, {})
        target_index = indices.setdefault(target_type, {})
        sources, targets, counts = batches.setdefault(
            (source_type, target_type), ([], [], [])
        )
        sources.append(source_index.setdefault(source_name, len(source_index)))
        targets.append(target_index.setdefault(target_name, len(target_index)))
        counts.append(float(fields[4]) if len(fields) == 5 else 1.0)
    network = HeterogeneousInformationNetwork(schema)
    for vertex_type, index in indices.items():
        network.add_vertices(vertex_type, index)
    for (source_type, target_type), batch in batches.items():
        network.add_edges(source_type, target_type, *batch)
    return network
