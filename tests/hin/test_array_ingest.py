"""Array-valued ingest: ``add_edges`` / ``add_vertices`` against the scalar path.

The per-edge ``add_edge`` replay is the reference: whatever a network
receives through ``add_edges`` chunks, through a mix of the two, or through
``network_from_dict``, it must end up byte-identical in adjacency buffers,
registries, ``version`` and ``num_edges`` — and every input the scalar path
refuses must be refused by the array path with the same exception type and
no change to the network.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import NetworkError, VertexNotFoundError
from repro.hin.bibliographic import bibliographic_schema
from repro.hin.edges import canonical_edge_arrays, canonical_edges
from repro.hin.io import load_json, network_from_dict, network_to_dict
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.hin.schema import NetworkSchema

TYPES = ("a", "b")
PAIRS = [(s, t) for i, s in enumerate(TYPES) for t in TYPES[i:]]
# Whole counts whose float sums depend on the order they are added in (past
# 2**53 a +1 or +3 rounds), so a cell hit three times tells whether two
# replays filled its buffer alike.
COUNTS = st.sampled_from([1.0, 3.0, 7.0, 1e16])
# Counts whose sums are exact in float64, whatever the order.
EXACT_COUNTS = st.sampled_from([1.0, 2.0, 3.0, 5.0])


def assert_identical(left, right):
    assert left.schema == right.schema
    assert left.version == right.version
    assert left.num_edges() == right.num_edges()
    for vertex_type in left.schema.vertex_types:
        assert left.vertex_names(vertex_type) == right.vertex_names(vertex_type)
        assert left.vertex_attributes(vertex_type) == right.vertex_attributes(vertex_type)
        assert left._name_index[vertex_type] == right._name_index[vertex_type]
    for edge_type in left.schema.edge_types:
        a = left.adjacency(edge_type.source, edge_type.target)
        b = right.adjacency(edge_type.source, edge_type.target)
        assert a.shape == b.shape
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, (edge_type, name)
            assert x.tobytes() == y.tobytes(), (edge_type, name)


@st.composite
def cases(draw, counts=COUNTS):
    """A schema, vertex counts, an edge sequence and how to cut it up."""
    kinds = draw(
        st.lists(
            st.sampled_from(["none", "directed", "both_directed", "symmetric"]),
            min_size=len(PAIRS),
            max_size=len(PAIRS),
        ).filter(lambda ks: any(k != "none" for k in ks))
    )
    schema = NetworkSchema(TYPES)
    for (source, target), kind in zip(PAIRS, kinds):
        if kind == "symmetric":
            schema.add_edge_type(source, target, symmetric=True)
        elif kind != "none":
            schema.add_edge_type(source, target, symmetric=False)
            if kind == "both_directed":
                schema.add_edge_type(target, source, symmetric=False)
    sizes = {t: draw(st.integers(1, 2)) for t in TYPES}
    relations = sorted((et.source, et.target) for et in schema.edge_types)
    # Few busy relations, so that cells repeat.
    busy = draw(st.lists(st.sampled_from(relations), min_size=1, max_size=2))
    edges = draw(
        st.lists(
            st.sampled_from(busy).flatmap(
                lambda r: st.tuples(
                    st.just(r),
                    st.integers(0, sizes[r[0]] - 1),
                    st.integers(0, sizes[r[1]] - 1),
                    counts,
                )
            ),
            max_size=30,
        )
    )
    # Cut the sequence into runs of one relation, split further at random;
    # each run goes in as one add_edges call or edge by edge.
    runs = []
    for edge in edges:
        if runs and runs[-1][0][0] == edge[0] and draw(st.integers(0, 4)):
            runs[-1].append(edge)
        else:
            runs.append([edge])
    return {
        "schema": schema,
        "sizes": sizes,
        "edges": edges,
        "runs": runs,
        "as_array": draw(st.lists(st.booleans(), min_size=len(runs), max_size=len(runs))),
        "read_after": draw(st.integers(0, len(runs))),
        "storage": draw(st.sampled_from(["ram", "mmap"])),
        "exact_counts": counts is EXACT_COUNTS,
    }


def unstable_mirror_case():
    """A mirror row of >= 16 unsorted entries whose repeated cell sums to
    another float than the canonical row's (``...aab`` against ``...aaa``):
    scipy sorts such a row with an unstable sort, so the order its
    duplicates are added in depends on the neighbouring entries."""
    schema = NetworkSchema(TYPES)
    schema.add_edge_type("a", "b", symmetric=True)
    cells = [(0, 0, 1.0)] * 15 + [(1, 0, 1.0), (0, 0, 1e16)]
    edges = [(("a", "b"), i, j, count) for i, j, count in cells]
    return {
        "schema": schema,
        "sizes": {"a": 2, "b": 1},
        "edges": edges,
        "runs": [edges],
        "as_array": [True],
        "read_after": 0,
        "storage": "ram",
        "exact_counts": False,
    }


def empty_network(case, *, bulk_vertices):
    network = HeterogeneousInformationNetwork(case["schema"], storage=case["storage"])
    for vertex_type in TYPES:
        names = [f"{vertex_type}{i}" for i in range(case["sizes"][vertex_type])]
        attributes = [{"rank": i} if i % 2 else None for i in range(len(names))]
        if bulk_vertices:
            network.add_vertices(vertex_type, names, attributes)
        else:
            for name, record in zip(names, attributes):
                network.add_vertex(vertex_type, name, record)
    return network


def scalar_replay(case):
    network = empty_network(case, bulk_vertices=False)
    for (source_type, target_type), i, j, count in case["edges"]:
        network.add_edge(VertexId(source_type, i), VertexId(target_type, j), count)
    return network


class TestReplayEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(cases())
    def test_chunked_and_interleaved_replays_match_per_edge_replay(self, case):
        reference = scalar_replay(case)

        chunked = empty_network(case, bulk_vertices=True)
        mixed = empty_network(case, bulk_vertices=True)
        for position, (run, as_array) in enumerate(zip(case["runs"], case["as_array"])):
            if position == case["read_after"]:
                # A read folds the buffers; later insertions must still land.
                for edge_type in case["schema"].edge_types:
                    mixed.adjacency(edge_type.source, edge_type.target)
            (source_type, target_type) = run[0][0]
            sources = [edge[1] for edge in run]
            targets = [edge[2] for edge in run]
            counts = [edge[3] for edge in run]
            chunked.add_edges(source_type, target_type, sources, targets, counts)
            if as_array:
                mixed.add_edges(
                    source_type, target_type, np.array(sources), np.array(targets), counts
                )
            else:
                for i, j, count in zip(sources, targets, counts):
                    mixed.add_edge(VertexId(source_type, i), VertexId(target_type, j), count)
        assert_identical(chunked, reference)
        assert_identical(mixed, reference)

    @settings(max_examples=120, deadline=None)
    @given(cases() | cases(EXACT_COUNTS))
    @example(unstable_mirror_case())
    def test_document_round_trip_matches_per_edge_replay(self, case):
        original = scalar_replay(case)
        restored = network_from_dict(
            json.loads(json.dumps(network_to_dict(original))), storage=case["storage"]
        )

        replayed = empty_network(case, bulk_vertices=False)
        for u, v, count in canonical_edges(original):
            replayed.add_edge(u, v, count)
        assert_identical(restored, replayed)
        # ... and the canonical form loses nothing but the insertion history:
        # every entry the document carries comes back byte for byte.  An
        # entry it leaves to its mirror comes back as the mirror's float,
        # which is the original's own whenever the sums are exact, and
        # otherwise within what two orders of one float sum can differ by.
        schema = case["schema"]
        carried = {(s, t) for s, t, *_ in canonical_edge_arrays(original)}
        tolerance = len(case["edges"]) * np.finfo(np.float64).eps
        for edge_type in schema.edge_types:
            pair = (edge_type.source, edge_type.target)
            a, b = original.adjacency(*pair), restored.adjacency(*pair)
            assert a.indptr.tobytes() == b.indptr.tobytes()
            assert a.indices.tobytes() == b.indices.tobytes()
            if pair not in carried:
                mirrored = np.ones(a.nnz, dtype=bool)
            elif edge_type.source == edge_type.target and schema.is_symmetric(*pair):
                rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
                mirrored = rows > a.indices
            else:
                mirrored = np.zeros(a.nnz, dtype=bool)
            assert a.data[~mirrored].tobytes() == b.data[~mirrored].tobytes()
            if case["exact_counts"]:
                assert a.data[mirrored].tobytes() == b.data[mirrored].tobytes()
            else:
                np.testing.assert_allclose(
                    a.data[mirrored], b.data[mirrored], rtol=tolerance, atol=0.0
                )

    def test_default_counts_are_ones(self):
        schema = bibliographic_schema()
        network = HeterogeneousInformationNetwork(schema)
        network.add_vertices("paper", ["p1", "p2"])
        network.add_vertices("author", ["Ava"])
        network.add_edges("paper", "author", [0, 1, 1], [0, 0, 0])
        assert network.adjacency("author", "paper").toarray().tolist() == [[1.0, 2.0]]
        assert network.num_edges() == 3
        assert network.version == 6

    def test_caller_arrays_are_not_aliased(self):
        network = HeterogeneousInformationNetwork(bibliographic_schema())
        network.add_vertices("paper", ["p1", "p2"])
        network.add_vertices("author", ["Ava"])
        sources = np.array([0, 1], dtype=np.int64)
        counts = np.array([1.0, 3.0])
        network.add_edges("paper", "author", sources, [0, 0], counts)
        sources[:] = 0
        counts[:] = 9.0
        assert network.adjacency("paper", "author").toarray().tolist() == [[1.0], [3.0]]


# ----------------------------------------------------------------------
# Rejected input
# ----------------------------------------------------------------------
@pytest.fixture()
def small():
    network = HeterogeneousInformationNetwork(bibliographic_schema())
    network.add_vertices("paper", ["p1", "p2", "p3"])
    network.add_vertices("author", ["Ava", "Liam"])
    network.add_vertices("venue", ["KDD"])
    network.add_edge(VertexId("paper", 0), VertexId("author", 0))
    network.add_edges("paper", "venue", [0, 1], [0, 0], [1.0, 2.0])
    return network


def snapshot(network):
    buffers = {
        edge_type: tuple(array.tobytes() for array in buffer.arrays())
        for edge_type, buffer in network._buffers.items()
    }
    return network.version, network.num_edges(), buffers


# (source_type, target_type, sources, targets, counts, expected); the last
# position of each batch is the offending one, the first is valid.
REJECTED = {
    "unknown source type": ("galaxy", "author", [0, 0], [0, 0], [1.0, 1.0], VertexNotFoundError),
    "unknown target type": ("paper", "galaxy", [0, 0], [0, 0], [1.0, 1.0], VertexNotFoundError),
    "source out of range": ("paper", "author", [0, 3], [0, 0], [1.0, 1.0], VertexNotFoundError),
    "target out of range": ("paper", "author", [0, 0], [0, 2], [1.0, 1.0], VertexNotFoundError),
    "negative source": ("paper", "author", [0, -1], [0, 0], [1.0, 1.0], VertexNotFoundError),
    "negative target": ("paper", "author", [0, 0], [0, -1], [1.0, 1.0], VertexNotFoundError),
    "unregistered edge type": ("author", "venue", [0, 0], [0, 0], [1.0, 1.0], NetworkError),
    "zero count": ("paper", "author", [0, 1], [0, 0], [1.0, 0.0], NetworkError),
    "negative count": ("paper", "author", [0, 1], [0, 0], [1.0, -2.0], NetworkError),
    "nan count": ("paper", "author", [0, 1], [0, 0], [1.0, float("nan")], NetworkError),
    "infinite count": ("paper", "author", [0, 1], [0, 0], [1.0, float("inf")], NetworkError),
    "fractional count": ("paper", "author", [0, 1], [0, 0], [1.0, 2.5], NetworkError),
}


class TestRejectedInput:
    @pytest.mark.parametrize("case", REJECTED.values(), ids=REJECTED.keys())
    def test_same_exception_as_scalar_path_and_nothing_changes(self, small, case):
        source_type, target_type, sources, targets, counts, expected = case
        before = snapshot(small)
        with pytest.raises(expected) as array_error:
            small.add_edges(source_type, target_type, sources, targets, counts)
        assert snapshot(small) == before
        with pytest.raises(expected) as scalar_error:
            small.add_edge(
                VertexId(source_type, sources[-1]),
                VertexId(target_type, targets[-1]),
                counts[-1],
            )
        assert snapshot(small) == before
        assert type(array_error.value) is type(scalar_error.value)

    @pytest.mark.parametrize(
        "sources, targets, counts",
        [
            ([0, 1], [0], None),
            ([0, 1], [0, 0], [1.0]),
            ([[0, 1]], [[0, 0]], None),
            ([0.5], [0], None),
            (["0"], [0], None),
            ([0], [0], ["many"]),
        ],
        ids=["targets short", "counts short", "2-D", "float index", "str index", "str count"],
    )
    def test_malformed_batches(self, small, sources, targets, counts):
        before = snapshot(small)
        with pytest.raises(NetworkError):
            small.add_edges("paper", "author", sources, targets, counts)
        assert snapshot(small) == before

    def test_frozen_network(self, small):
        frozen = small.copy_with_storage("ram")
        version = frozen.version
        with pytest.raises(NetworkError, match="cannot be mutated") as array_error:
            frozen.add_edges("paper", "author", [0], [0])
        with pytest.raises(NetworkError, match="cannot be mutated") as scalar_error:
            frozen.add_edge(VertexId("paper", 0), VertexId("author", 0))
        assert type(array_error.value) is type(scalar_error.value)
        with pytest.raises(NetworkError, match="cannot be mutated"):
            frozen.add_vertices("paper", ["p9"])
        assert (frozen.version, frozen.num_edges()) == (version, small.num_edges())

    def test_empty_batch_is_checked_but_changes_nothing(self, small):
        before = snapshot(small)
        small.add_edges("paper", "author", [], [])
        assert snapshot(small) == before
        with pytest.raises(NetworkError):
            small.add_edges("author", "venue", [], [])

    @pytest.mark.parametrize("names", [["p9", "p9"], ["p9", "p1"]], ids=["in batch", "existing"])
    def test_add_vertices_refuses_duplicates_whole(self, small, names):
        before = snapshot(small)
        with pytest.raises(NetworkError, match="duplicate paper vertex name"):
            small.add_vertices("paper", names)
        assert snapshot(small) == before
        assert small.vertex_names("paper") == ["p1", "p2", "p3"]
        assert not small.has_vertex("paper", "p9")


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
class TestDocuments:
    def test_duplicate_name_in_document_is_refused(self, figure1):
        """A merged duplicate would shift every later index of the type and
        attach the file's edges to the wrong vertices."""
        data = network_to_dict(figure1)
        victim = data["vertices"]["author"][0]["name"]
        data["vertices"]["author"][2]["name"] = victim
        with pytest.raises(NetworkError, match=f"author.*{victim}"):
            network_from_dict(data)

    def test_nan_count_in_document_is_refused(self, figure1, tmp_path):
        data = network_to_dict(figure1)
        data["edges"][0]["count"] = float("nan")
        path = tmp_path / "poisoned.json"
        path.write_text(json.dumps(data), encoding="utf-8")  # writes a NaN literal
        with pytest.raises(NetworkError, match="finite"):
            load_json(path)

    def test_fractional_count_is_refused_at_every_door(self, small, figure1, tmp_path):
        """Regression: a fractional count loaded, and PM and Baseline then
        answered the same query with scores differing in the last place."""
        before = snapshot(small)
        with pytest.raises(NetworkError, match="whole number"):
            small.add_edge(VertexId("paper", 1), VertexId("author", 1), 0.5)
        with pytest.raises(NetworkError, match="whole number"):
            small.add_edges("paper", "author", [1, 2], [1, 1], [2.0, 1.1])
        assert snapshot(small) == before

        data = network_to_dict(figure1)
        data["edges"][0]["count"] = 0.3
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(NetworkError, match="whole number"):
            load_json(path)

        pytest.importorskip("networkx")
        from repro.hin.interop import from_networkx, to_networkx

        graph = to_networkx(figure1)
        u, v = next(iter(graph.edges()))
        graph.edges[u, v]["count"] = 0.7
        with pytest.raises(NetworkError, match="whole number"):
            from_networkx(graph)

    def test_load_makes_one_add_edges_call_per_stored_relation(
        self, figure1, tmp_path, monkeypatch
    ):
        """A count gate, not a timing gate: a per-record loop creeping back
        into the loader fails here on any machine."""
        data = network_to_dict(figure1)
        stored = {(edge["source_type"], edge["target_type"]) for edge in data["edges"]}
        assert len(data["edges"]) > len(stored) > 1
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data), encoding="utf-8")

        calls = {"add_edges": 0, "add_edge": 0, "add_vertex": 0}
        for name in calls:
            original = getattr(HeterogeneousInformationNetwork, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(HeterogeneousInformationNetwork, name, counted)
        restored = load_json(path)
        assert calls == {"add_edges": len(stored), "add_edge": 0, "add_vertex": 0}
        assert restored.num_edges() == len(data["edges"])
