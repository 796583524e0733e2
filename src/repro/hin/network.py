"""The heterogeneous information network store.

Design
------
Vertices of each type live in a contiguous per-type index space, so a vertex
is identified by a :class:`VertexId` ``(type, index)``.  Each registered edge
type ``(S, T)`` owns one sparse matrix ``A[S,T]`` of shape
``(num_vertices(S), num_vertices(T))`` whose entry ``(i, j)`` is the number of
parallel edges between the ``i``-th S-vertex and the ``j``-th T-vertex.

This layout makes meta-path materialization a chain of sparse matrix
products (paper Section 6) while keeping per-vertex traversal cheap through
CSR row slicing.

Mutation model: edges are buffered per edge type as COO triples held in
numpy chunks — :meth:`~HeterogeneousInformationNetwork.add_edges` appends a
whole array chunk, scalar ``add_edge`` appends to a pending tail — and
adjacency matrices are (re)built lazily on first access after a mutation,
which folds chunks and tail into one array with a single concatenate.  This
keeps bulk loading linear (and free of per-edge Python when the caller has
arrays) while leaving reads cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

import numpy as np
from scipy import sparse

from repro.exceptions import NetworkError, VertexNotFoundError
from repro.hin.schema import EdgeType, NetworkSchema
from repro.hin.storage import STORAGE_MODES, MmapArrayStore, spill_csr

__all__ = ["VertexId", "Vertex", "HeterogeneousInformationNetwork"]


@dataclass(frozen=True, order=True)
class VertexId:
    """Identifies a vertex by its type and its index within that type."""

    type: str
    index: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.type}#{self.index}"


@dataclass
class Vertex:
    """A vertex record: identity, display name, and free-form attributes."""

    id: VertexId
    name: str
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def type(self) -> str:
        return self.id.type


_FROZEN_MESSAGE = (
    "this network wraps shared read-only adjacency buffers "
    "(from_prebuilt) and cannot be mutated"
)


class _EdgeBuffer:
    """COO buffer of one edge type: numpy chunks plus a pending scalar tail.

    Entries keep insertion order across :meth:`add` and :meth:`extend`, so
    the float sums of repeated ``(row, col)`` cells do not depend on which
    of the two filled the buffer.
    """

    __slots__ = ("_chunks", "_rows", "_cols", "_counts")

    def __init__(self) -> None:
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._counts: list[float] = []

    def add(self, row: int, col: int, count: float) -> None:
        self._rows.append(row)
        self._cols.append(col)
        self._counts.append(count)

    def extend(self, rows: np.ndarray, cols: np.ndarray, counts: np.ndarray) -> None:
        """Append one chunk; the arrays are kept, not copied."""
        if self._rows:
            self._seal_tail()
        self._chunks.append((rows, cols, counts))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Everything buffered so far as ``(rows, cols, counts)`` arrays,
        folded into a single chunk by one concatenate per column."""
        if self._rows or len(self._chunks) != 1:
            self._seal_tail()
            self._chunks = [
                tuple(np.concatenate(parts) for parts in zip(*self._chunks))
            ]
        return self._chunks[0]

    def _seal_tail(self) -> None:
        self._chunks.append(
            (
                np.asarray(self._rows, dtype=np.int64),
                np.asarray(self._cols, dtype=np.int64),
                np.asarray(self._counts, dtype=np.float64),
            )
        )
        self._rows, self._cols, self._counts = [], [], []


def _index_array(values: Iterable[int]) -> np.ndarray:
    """``values`` as a private int64 array; non-integer input is refused."""
    array = np.array(values)
    if array.size and array.dtype.kind not in "iu":
        raise NetworkError(
            f"vertex indices must be integers, got dtype {array.dtype}"
        )
    return array.astype(np.int64, copy=False)


def _refuse_lone_surrogates(vertex_type: str, names: Iterable[Any]) -> None:
    """Raise :class:`NetworkError` for a name that is not valid Unicode.

    A ``str`` can hold a lone UTF-16 surrogate (a JSON ``"\\ud800"``
    escape loads as one).  Such a name has no UTF-8 form, so no reply
    naming its vertex could be written; it is refused where it enters.
    """
    for name in names:
        if isinstance(name, str) and not name.isascii():
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:
                raise NetworkError(
                    f"{vertex_type} vertex name {name!r} is not valid "
                    "Unicode (it holds a lone surrogate)"
                ) from None


def _span(array: np.ndarray, empty: tuple) -> tuple:
    """``(min, max)`` of ``array``, or ``empty`` when it has no elements."""
    return (array.min(), array.max()) if array.size else empty


class HeterogeneousInformationNetwork:
    """A multi-typed graph with per-edge-type sparse adjacency.

    Parameters
    ----------
    schema:
        The :class:`~repro.hin.schema.NetworkSchema` this network instantiates.

    Examples
    --------
    >>> from repro.hin import bibliographic_schema
    >>> net = HeterogeneousInformationNetwork(bibliographic_schema())
    >>> ava = net.add_vertex("author", "Ava")
    >>> p1 = net.add_vertex("paper", "p1")
    >>> kdd = net.add_vertex("venue", "KDD")
    >>> net.add_edge(p1, ava)
    >>> net.add_edge(p1, kdd)
    >>> net.num_vertices("author")
    1
    """

    def __init__(
        self,
        schema: NetworkSchema,
        *,
        storage: str = "ram",
        storage_dir: "str | None" = None,
    ) -> None:
        self._schema = schema
        # Storage tier for adjacency buffers: "ram" keeps CSR arrays on the
        # heap (historical behavior); "mmap" spills every rebuilt matrix to
        # read-only np.memmap files so resident memory tracks the working
        # set, not the graph size.  See repro.hin.storage.
        if storage not in STORAGE_MODES:
            raise NetworkError(
                f"unknown storage mode {storage!r}; expected 'ram' or 'mmap'"
            )
        self._storage = storage
        self._store: MmapArrayStore | None = (
            MmapArrayStore(storage_dir) if storage == "mmap" else None
        )
        # Per-type registries.
        self._names: dict[str, list[str]] = {t: [] for t in schema.vertex_types}
        self._name_index: dict[str, dict[str, int]] = {t: {} for t in schema.vertex_types}
        self._attributes: dict[str, list[dict[str, Any]]] = {t: [] for t in schema.vertex_types}
        # Edge storage: buffered COO triples + lazily built CSR per edge type.
        self._buffers: dict[EdgeType, _EdgeBuffer] = {}
        self._adjacency: dict[EdgeType, sparse.csr_matrix] = {}
        self._dirty: set[EdgeType] = set()
        self._num_edges = 0
        # Mutation counter: bumps on every vertex/edge insertion so index
        # layers can detect staleness (see repro.engine.strategies).
        self._version = 0
        # Set by :meth:`from_prebuilt`: a network wrapped around externally
        # owned adjacency buffers (worker-segment views) cannot be mutated —
        # its COO buffers are empty, so a rebuild would silently drop every
        # edge.  Mutations raise instead.
        self._frozen = False

    @classmethod
    def from_prebuilt(
        cls,
        schema: NetworkSchema,
        names: Mapping[str, list[str]],
        attributes: Mapping[str, list[dict[str, Any]]],
        adjacency: Mapping[tuple[str, str], sparse.csr_matrix],
        *,
        num_edges: int = 0,
        version: int = 0,
        storage: str = "ram",
        storage_dir: "str | None" = None,
    ) -> "HeterogeneousInformationNetwork":
        """Wrap pre-built adjacency matrices in a read-only network.

        The service's process backend reconstructs networks in worker
        processes from worker-segment CSR views: the matrices are installed
        directly (no copy, no COO rebuild) and the network is **frozen** —
        ``add_vertex`` / ``add_edge`` raise, because the COO buffers backing
        a rebuild are empty here and the underlying buffers are shared
        read-only pages.  ``version`` should carry the source network's
        mutation counter so result-cache keys agree across processes.

        With ``storage="mmap"`` each installed matrix is spilled to the
        network's memmap store and replaced by a read-only file-backed
        view, freeing the in-RAM copy — the path the streaming generator
        and the out-of-core bench use to hold 1M+-vertex adjacency at a
        bounded resident footprint.
        """
        network = cls(schema, storage=storage, storage_dir=storage_dir)
        for vertex_type, type_names in names.items():
            if not schema.has_vertex_type(vertex_type):
                raise NetworkError(
                    f"vertex type {vertex_type!r} is not in the schema"
                )
            network._names[vertex_type] = list(type_names)
            network._name_index[vertex_type] = {
                name: index for index, name in enumerate(type_names)
            }
            type_attributes = list(attributes.get(vertex_type, []))
            if len(type_attributes) < len(type_names):
                type_attributes.extend(
                    {} for _ in range(len(type_names) - len(type_attributes))
                )
            network._attributes[vertex_type] = type_attributes
        for (source, target), matrix in adjacency.items():
            if not schema.has_edge_type(source, target):
                raise NetworkError(
                    f"edge type {source}-{target} is not registered in the schema"
                )
            expected = (
                len(network._names[source]),
                len(network._names[target]),
            )
            if tuple(matrix.shape) != expected:
                raise NetworkError(
                    f"adjacency for {source}-{target} has shape "
                    f"{tuple(matrix.shape)}, expected {expected}"
                )
            edge_type = EdgeType(source, target)
            if network._store is not None:
                matrix = spill_csr(
                    network._store, f"adj:{source}:{target}", matrix.tocsr()
                )
            network._adjacency[edge_type] = matrix
        network._num_edges = num_edges
        network._version = version
        network._frozen = True
        return network

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------
    @property
    def schema(self) -> NetworkSchema:
        return self._schema

    @property
    def storage(self) -> str:
        """The adjacency storage tier: ``"ram"`` or ``"mmap"``."""
        return self._storage

    def copy_with_storage(
        self, storage: str, storage_dir: "str | None" = None
    ) -> "HeterogeneousInformationNetwork":
        """A frozen copy of this network on a different storage tier.

        Every registered edge type's adjacency is (re)built and handed to
        :meth:`from_prebuilt`, which spills to memmap files when
        ``storage="mmap"``.  Vertex registries are copied; the result is
        read-only.  The parity harness uses this to run the same graph
        through both tiers and assert byte-identical scores.
        """
        adjacency = {
            (et.source, et.target): self.adjacency(et.source, et.target)
            for et in self._schema.edge_types
        }
        return type(self).from_prebuilt(
            self._schema,
            self._names,
            self._attributes,
            adjacency,
            num_edges=self._num_edges,
            version=self._version,
            storage=storage,
            storage_dir=storage_dir,
        )

    def add_vertex(
        self,
        vertex_type: str,
        name: str,
        attributes: Mapping[str, Any] | None = None,
    ) -> VertexId:
        """Add a vertex and return its id.

        Adding a vertex with a ``(type, name)`` pair that already exists
        returns the existing id (names are unique per type); attributes of
        the existing vertex are left untouched.
        """
        if not self._schema.has_vertex_type(vertex_type):
            raise NetworkError(f"vertex type {vertex_type!r} is not in the schema")
        index_map = self._name_index[vertex_type]
        existing = index_map.get(name)
        if existing is not None:
            return VertexId(vertex_type, existing)
        if self._frozen:
            raise NetworkError(_FROZEN_MESSAGE)
        _refuse_lone_surrogates(vertex_type, (name,))
        index = len(self._names[vertex_type])
        self._version += 1
        self._names[vertex_type].append(name)
        index_map[name] = index
        self._attributes[vertex_type].append(dict(attributes or {}))
        self._mark_resized(vertex_type)
        return VertexId(vertex_type, index)

    def add_vertices(
        self,
        vertex_type: str,
        names: Iterable[str],
        attributes: Iterable[Mapping[str, Any] | None] | None = None,
    ) -> list[VertexId]:
        """Append new vertices of one type in a single step.

        Returns their ids in input order.  Unlike
        :meth:`add_vertex` this is strict: a name that repeats within
        ``names`` or already exists for the type raises
        :class:`NetworkError` and changes nothing — bulk callers address
        the new vertices by position, which a silently merged duplicate
        would shift.  ``attributes``, when given, pairs one mapping (or
        ``None``) with each name.
        """
        if not self._schema.has_vertex_type(vertex_type):
            raise NetworkError(f"vertex type {vertex_type!r} is not in the schema")
        names = list(names)
        records = (
            [{} for _ in names]
            if attributes is None
            else [dict(record or {}) for record in attributes]
        )
        if len(records) != len(names):
            raise NetworkError(
                f"got {len(records)} attribute records for {len(names)} "
                f"{vertex_type} vertices"
            )
        if self._frozen:
            raise NetworkError(_FROZEN_MESSAGE)
        _refuse_lone_surrogates(vertex_type, names)
        index_map = self._name_index[vertex_type]
        start = len(self._names[vertex_type])
        fresh = dict(zip(names, range(start, start + len(names))))
        if len(fresh) != len(names) or not index_map.keys().isdisjoint(fresh):
            seen = set(index_map)
            for name in names:
                if name in seen:
                    raise NetworkError(f"duplicate {vertex_type} vertex name {name!r}")
                seen.add(name)
        index_map.update(fresh)
        self._names[vertex_type].extend(names)
        self._attributes[vertex_type].extend(records)
        self._version += len(names)
        self._mark_resized(vertex_type)
        return [VertexId(vertex_type, index) for index in fresh.values()]

    def vertex(self, vertex_id: VertexId) -> Vertex:
        """Full vertex record for ``vertex_id``."""
        self._check_id(vertex_id)
        return Vertex(
            id=vertex_id,
            name=self._names[vertex_id.type][vertex_id.index],
            attributes=self._attributes[vertex_id.type][vertex_id.index],
        )

    def find_vertex(self, vertex_type: str, name: str) -> VertexId:
        """Look up a vertex by type and exact name.

        Raises
        ------
        VertexNotFoundError
            If no such vertex exists.
        """
        if not self._schema.has_vertex_type(vertex_type):
            raise VertexNotFoundError(f"vertex type {vertex_type!r} is not in the schema")
        index = self._name_index[vertex_type].get(name)
        if index is None:
            raise VertexNotFoundError(f"no {vertex_type} vertex named {name!r}")
        return VertexId(vertex_type, index)

    def has_vertex(self, vertex_type: str, name: str) -> bool:
        return (
            self._schema.has_vertex_type(vertex_type)
            and name in self._name_index[vertex_type]
        )

    def vertex_name(self, vertex_id: VertexId) -> str:
        self._check_id(vertex_id)
        return self._names[vertex_id.type][vertex_id.index]

    def num_vertices(self, vertex_type: str | None = None) -> int:
        """Vertex count for one type, or across all types when ``None``."""
        if vertex_type is None:
            return sum(len(names) for names in self._names.values())
        if not self._schema.has_vertex_type(vertex_type):
            raise NetworkError(f"vertex type {vertex_type!r} is not in the schema")
        return len(self._names[vertex_type])

    def vertices(self, vertex_type: str) -> Iterator[VertexId]:
        """Iterate all vertex ids of one type in index order."""
        if not self._schema.has_vertex_type(vertex_type):
            raise NetworkError(f"vertex type {vertex_type!r} is not in the schema")
        for index in range(len(self._names[vertex_type])):
            yield VertexId(vertex_type, index)

    def vertex_names(self, vertex_type: str) -> list[str]:
        """All names of one type, in index order (copy)."""
        if not self._schema.has_vertex_type(vertex_type):
            raise NetworkError(f"vertex type {vertex_type!r} is not in the schema")
        return list(self._names[vertex_type])

    def vertex_attributes(self, vertex_type: str) -> list[dict[str, Any]]:
        """Attribute dicts of one type, in index order (shallow copy of the
        list; the dicts are the live records)."""
        if not self._schema.has_vertex_type(vertex_type):
            raise NetworkError(f"vertex type {vertex_type!r} is not in the schema")
        return list(self._attributes[vertex_type])

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, u: VertexId, v: VertexId, count: float = 1.0) -> None:
        """Add ``count`` parallel edges between ``u`` and ``v``.

        The edge type ``(u.type, v.type)`` must exist in the schema.  If the
        reverse edge type is also registered (the symmetric/undirected
        default), the reverse direction is recorded as well so that both
        adjacency matrices stay transposes of one another.
        """
        self._check_edges(u.type, v.type, (u.index, u.index), (v.index, v.index), count)
        self._buffer_for(EdgeType(u.type, v.type)).add(u.index, v.index, count)
        # Mirror into the reverse adjacency only for symmetric relations —
        # a directed relation (symmetric=False) stays one-way even when its
        # endpoints share a type or the opposite direction is registered
        # separately.
        if self._schema.is_symmetric(u.type, v.type):
            self._buffer_for(EdgeType(v.type, u.type)).add(v.index, u.index, count)
        self._num_edges += 1
        self._version += 1

    def add_edges(
        self,
        source_type: str,
        target_type: str,
        sources: Iterable[int],
        targets: Iterable[int],
        counts: Iterable[float] | None = None,
    ) -> None:
        """Add one edge per position of ``sources`` / ``targets`` / ``counts``.

        The array form of :meth:`add_edge`: ``sources`` and ``targets`` are
        equal-length 1-D integer sequences of vertex indices within
        ``source_type`` / ``target_type``, ``counts`` (default all ones) the
        parallel-edge counts.  The whole batch passes the checks
        :meth:`add_edge` makes or none of it is applied; symmetric relations
        are mirrored, and :meth:`num_edges` and :attr:`version` advance by
        ``len(sources)`` — afterwards the network is indistinguishable from
        one that received the same edges one ``add_edge`` at a time.
        """
        sources = _index_array(sources)
        targets = _index_array(targets)
        if counts is None:
            counts = np.ones(sources.shape, dtype=np.float64)
        else:
            try:
                counts = np.array(counts, dtype=np.float64)
            except (TypeError, ValueError) as error:
                raise NetworkError(f"edge counts must be numbers: {error}") from None
        if sources.ndim != 1 or not sources.shape == targets.shape == counts.shape:
            raise NetworkError(
                "sources, targets and counts must be 1-D and of equal length, "
                f"got shapes {sources.shape}, {targets.shape}, {counts.shape}"
            )
        added = len(sources)
        self._check_edges(
            source_type,
            target_type,
            _span(sources, (0, -1)),
            _span(targets, (0, -1)),
            counts,
        )
        if self._schema.is_symmetric(source_type, target_type):
            if source_type == target_type:
                # One buffer takes edge and mirror alternately, as repeated
                # add_edge calls would have filled it.
                sources, targets = (
                    np.column_stack((sources, targets)).ravel(),
                    np.column_stack((targets, sources)).ravel(),
                )
                counts = np.repeat(counts, 2)
            else:
                self._buffer_for(EdgeType(target_type, source_type)).extend(
                    targets, sources, counts
                )
        self._buffer_for(EdgeType(source_type, target_type)).extend(
            sources, targets, counts
        )
        self._num_edges += added
        self._version += added

    @property
    def version(self) -> int:
        """Mutation counter: increments on every vertex or edge insertion.

        Index layers snapshot this at build time to detect staleness.
        """
        return self._version

    def bump_version(self) -> int:
        """Advance the mutation counter without changing any data.

        The hot-swap hook: bumping the version atomically invalidates every
        version-keyed consumer (result caches, sub-path caches, strategies
        built against the old index) even though the graph itself is
        unchanged.  Works on frozen (``from_prebuilt``) networks too — only
        the counter moves, never the shared buffers.  Returns the new
        version.
        """
        self._version += 1
        return self._version

    def num_edges(self) -> int:
        """Number of (undirected) edge insertions made so far."""
        return self._num_edges

    def adjacency(self, source_type: str, target_type: str) -> sparse.csr_matrix:
        """The adjacency matrix of edge type ``(source_type, target_type)``.

        Shape is ``(num_vertices(source_type), num_vertices(target_type))``;
        entries are parallel-edge counts.  The returned matrix is the
        network's cached instance — treat it as read-only.
        """
        edge_type = EdgeType(source_type, target_type)
        if not self._schema.has_edge_type(source_type, target_type):
            raise NetworkError(
                f"edge type {source_type}-{target_type} is not registered in the schema"
            )
        if edge_type in self._dirty or edge_type not in self._adjacency:
            self._rebuild(edge_type)
        return self._adjacency[edge_type]

    def degree(self, vertex_id: VertexId, neighbor_type: str) -> float:
        """Total edge count from ``vertex_id`` to vertices of ``neighbor_type``."""
        matrix = self.adjacency(vertex_id.type, neighbor_type)
        row = matrix.indptr[vertex_id.index], matrix.indptr[vertex_id.index + 1]
        return float(matrix.data[row[0]:row[1]].sum())

    def neighbors(self, vertex_id: VertexId, neighbor_type: str) -> list[VertexId]:
        """Distinct one-hop neighbors of ``vertex_id`` with type ``neighbor_type``."""
        matrix = self.adjacency(vertex_id.type, neighbor_type)
        start, stop = matrix.indptr[vertex_id.index], matrix.indptr[vertex_id.index + 1]
        return [VertexId(neighbor_type, int(j)) for j in matrix.indices[start:stop]]

    def neighbor_counts(self, vertex_id: VertexId, neighbor_type: str) -> dict[int, float]:
        """Map neighbor index -> parallel edge count for one-hop neighbors."""
        matrix = self.adjacency(vertex_id.type, neighbor_type)
        start, stop = matrix.indptr[vertex_id.index], matrix.indptr[vertex_id.index + 1]
        return {
            int(j): float(c)
            for j, c in zip(matrix.indices[start:stop], matrix.data[start:stop])
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _buffer_for(self, edge_type: EdgeType) -> _EdgeBuffer:
        """The buffer an insertion is about to write to (marks it dirty)."""
        self._dirty.add(edge_type)
        buffer = self._buffers.get(edge_type)
        if buffer is None:
            buffer = _EdgeBuffer()
            self._buffers[edge_type] = buffer
        return buffer

    def _mark_resized(self, vertex_type: str) -> None:
        # Grown vertex counts invalidate matrix shapes for this type.
        for edge_type in self._adjacency:
            if vertex_type in (edge_type.source, edge_type.target):
                self._dirty.add(edge_type)

    def _check_edges(
        self,
        source_type: str,
        target_type: str,
        sources: tuple[int, int],
        targets: tuple[int, int],
        counts: "np.ndarray | float",
    ) -> None:
        """Every check an edge insertion must pass, scalar or array.

        ``sources`` / ``targets`` are the ``(lowest, highest)`` indices of
        the batch (a scalar is its own extremes), which is all the range
        checks need.  ``counts`` is the batch's count array, or the one
        count.  A count is a number of parallel edges: a positive finite
        integer (NaN fails both range comparisons), which is what keeps
        path counts exact and every strategy's scores byte-identical.  The
        integer test is one vectorised remainder over the batch.
        """
        self._check_index_span(source_type, *sources)
        self._check_index_span(target_type, *targets)
        if self._frozen:
            raise NetworkError(_FROZEN_MESSAGE)
        low, high = (counts, counts) if np.isscalar(counts) else _span(counts, (1, 1))
        if not (0 < low and high < math.inf):
            raise NetworkError(
                "edge count must be positive and finite, "
                f"got {high if 0 < low else low}"
            )
        fractions = counts % 1
        if np.count_nonzero(fractions):
            raise NetworkError(
                "edge count must be a whole number of parallel edges, "
                f"got {np.extract(fractions != 0, counts)[0]}"
            )
        if not self._schema.has_edge_type(source_type, target_type):
            raise NetworkError(
                f"edge type {source_type}-{target_type} is not registered in the schema"
            )

    def _rebuild(self, edge_type: EdgeType) -> None:
        rows, cols, counts = self._buffers.get(edge_type, _EdgeBuffer()).arrays()
        shape = (
            len(self._names[edge_type.source]),
            len(self._names[edge_type.target]),
        )
        matrix = sparse.coo_matrix((counts, (rows, cols)), shape=shape).tocsr()
        # Duplicate COO entries are summed by tocsr(), which is exactly the
        # parallel-edge-count semantics we want.
        matrix.sum_duplicates()
        if self._store is not None:
            # mmap tier: the freshly built matrix moves to read-only
            # file-backed buffers; the heap copy is dropped.  A later
            # rebuild of the same edge type re-spills and retires the old
            # files.
            matrix = spill_csr(
                self._store, f"adj:{edge_type.source}:{edge_type.target}", matrix
            )
        self._adjacency[edge_type] = matrix
        self._dirty.discard(edge_type)

    def _check_id(self, vertex_id: VertexId) -> None:
        self._check_index_span(vertex_id.type, vertex_id.index, vertex_id.index)

    def _check_index_span(self, vertex_type: str, low: int, high: int) -> None:
        if not self._schema.has_vertex_type(vertex_type):
            raise VertexNotFoundError(f"vertex type {vertex_type!r} is not in the schema")
        if not (0 <= low and high < len(self._names[vertex_type])):
            raise VertexNotFoundError(
                f"no {vertex_type} vertex with index {low if low < 0 else high}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = {t: len(n) for t, n in sorted(self._names.items())}
        return f"HIN(vertices={counts}, edges={self._num_edges})"
