"""Heterogeneous information network (HIN) substrate.

This package provides the typed graph store everything else builds on:

* :class:`~repro.hin.schema.NetworkSchema` — declares vertex types and the
  edge types (ordered type pairs) that may connect them.
* :class:`~repro.hin.network.HeterogeneousInformationNetwork` — the graph
  itself: per-type vertex registries plus one sparse adjacency matrix per
  edge type.
* :class:`~repro.hin.builder.NetworkBuilder` — a convenience layer for
  assembling networks from records.
* :mod:`~repro.hin.bibliographic` — DBLP-style constructors matching the
  paper's running example (authors, papers, venues, terms).
* :mod:`~repro.hin.io` — JSON and TSV persistence.
* :mod:`~repro.hin.storage` — the array store behind ``storage="mmap"``
  (np.memmap-backed CSR buffers for networks larger than comfortable RAM).
"""

from repro.hin.schema import EdgeType, NetworkSchema, bibliographic_schema
from repro.hin.network import HeterogeneousInformationNetwork, Vertex, VertexId
from repro.hin.storage import STORAGE_MODES, MmapArrayStore
from repro.hin.builder import NetworkBuilder
from repro.hin.interop import from_networkx, infer_schema_from_networkx, to_networkx
from repro.hin.subnetwork import induced_subnetwork, slice_by_attribute
from repro.hin.bibliographic import (
    AUTHOR,
    PAPER,
    TERM,
    VENUE,
    BibliographicNetworkBuilder,
    Publication,
)

HIN = HeterogeneousInformationNetwork

__all__ = [
    "EdgeType",
    "NetworkSchema",
    "bibliographic_schema",
    "HeterogeneousInformationNetwork",
    "HIN",
    "Vertex",
    "VertexId",
    "NetworkBuilder",
    "STORAGE_MODES",
    "MmapArrayStore",
    "BibliographicNetworkBuilder",
    "Publication",
    "AUTHOR",
    "PAPER",
    "VENUE",
    "TERM",
    "to_networkx",
    "from_networkx",
    "infer_schema_from_networkx",
    "induced_subnetwork",
    "slice_by_attribute",
]
