"""Tests for :mod:`repro.hin.network`."""

import numpy as np
import pytest

from repro.exceptions import NetworkError, VertexNotFoundError
from repro.hin.network import HeterogeneousInformationNetwork, VertexId
from repro.hin.schema import NetworkSchema, bibliographic_schema


@pytest.fixture()
def empty_network():
    return HeterogeneousInformationNetwork(bibliographic_schema())


@pytest.fixture()
def tiny_network():
    """Two papers: p1 by Ava+Liam in KDD; p2 by Liam in ICDE."""
    net = HeterogeneousInformationNetwork(bibliographic_schema())
    ava = net.add_vertex("author", "Ava")
    liam = net.add_vertex("author", "Liam")
    p1 = net.add_vertex("paper", "p1")
    p2 = net.add_vertex("paper", "p2")
    kdd = net.add_vertex("venue", "KDD")
    icde = net.add_vertex("venue", "ICDE")
    net.add_edge(p1, ava)
    net.add_edge(p1, liam)
    net.add_edge(p1, kdd)
    net.add_edge(p2, liam)
    net.add_edge(p2, icde)
    return net


class TestVertices:
    def test_add_vertex_returns_sequential_ids(self, empty_network):
        first = empty_network.add_vertex("author", "A")
        second = empty_network.add_vertex("author", "B")
        assert (first.type, first.index) == ("author", 0)
        assert (second.type, second.index) == ("author", 1)

    def test_duplicate_name_returns_existing_id(self, empty_network):
        first = empty_network.add_vertex("author", "A", {"k": 1})
        again = empty_network.add_vertex("author", "A", {"k": 2})
        assert first == again
        # Attributes of the existing vertex are untouched.
        assert empty_network.vertex(first).attributes == {"k": 1}

    def test_same_name_different_types_are_distinct(self, empty_network):
        author = empty_network.add_vertex("author", "X")
        venue = empty_network.add_vertex("venue", "X")
        assert author.type != venue.type
        assert empty_network.num_vertices() == 2

    def test_unknown_type_rejected(self, empty_network):
        with pytest.raises(NetworkError):
            empty_network.add_vertex("galaxy", "X")

    def test_find_vertex(self, tiny_network):
        ava = tiny_network.find_vertex("author", "Ava")
        assert tiny_network.vertex_name(ava) == "Ava"

    def test_find_vertex_missing_name(self, tiny_network):
        with pytest.raises(VertexNotFoundError, match="no author vertex"):
            tiny_network.find_vertex("author", "Zoe")

    def test_find_vertex_missing_type(self, tiny_network):
        with pytest.raises(VertexNotFoundError):
            tiny_network.find_vertex("galaxy", "Ava")

    def test_has_vertex(self, tiny_network):
        assert tiny_network.has_vertex("author", "Ava")
        assert not tiny_network.has_vertex("author", "Zoe")
        assert not tiny_network.has_vertex("galaxy", "Ava")

    def test_num_vertices_by_type(self, tiny_network):
        assert tiny_network.num_vertices("author") == 2
        assert tiny_network.num_vertices("paper") == 2
        assert tiny_network.num_vertices("venue") == 2
        assert tiny_network.num_vertices("term") == 0

    def test_num_vertices_total(self, tiny_network):
        assert tiny_network.num_vertices() == 6

    def test_num_vertices_unknown_type(self, tiny_network):
        with pytest.raises(NetworkError):
            tiny_network.num_vertices("galaxy")

    def test_vertices_iteration_order(self, tiny_network):
        ids = list(tiny_network.vertices("author"))
        assert ids == [VertexId("author", 0), VertexId("author", 1)]

    def test_vertex_names_returns_copy(self, tiny_network):
        names = tiny_network.vertex_names("author")
        names.append("Mallory")
        assert tiny_network.vertex_names("author") == ["Ava", "Liam"]

    def test_add_vertices_bulk(self, empty_network):
        ids = empty_network.add_vertices("term", ["a", "b", "c"])
        assert [v.index for v in ids] == [0, 1, 2]

    def test_lone_surrogate_name_refused(self, empty_network):
        """A name with no UTF-8 form could never be written into a reply."""
        with pytest.raises(NetworkError, match="lone surrogate"):
            empty_network.add_vertex("author", "Zo\ud800e")
        with pytest.raises(NetworkError, match="lone surrogate"):
            empty_network.add_vertices("author", ["Ava", "Zo\udfffe"])
        # Refused before anything is registered.
        assert empty_network.num_vertices("author") == 0
        assert empty_network.version == 0

    def test_non_ascii_names_accepted(self, empty_network):
        zoe = empty_network.add_vertex("author", "Zoë")
        ids = empty_network.add_vertices("author", ["Łukasz", "渡辺", "😀"])
        assert empty_network.vertex_name(zoe) == "Zoë"
        assert [empty_network.vertex_name(v) for v in ids] == ["Łukasz", "渡辺", "😀"]

    def test_vertex_record(self, empty_network):
        vid = empty_network.add_vertex("paper", "p", {"year": 2014})
        vertex = empty_network.vertex(vid)
        assert vertex.name == "p"
        assert vertex.type == "paper"
        assert vertex.attributes == {"year": 2014}

    def test_vertex_invalid_index(self, tiny_network):
        with pytest.raises(VertexNotFoundError):
            tiny_network.vertex(VertexId("author", 99))


class TestEdges:
    def test_adjacency_shape_and_counts(self, tiny_network):
        matrix = tiny_network.adjacency("paper", "author")
        assert matrix.shape == (2, 2)
        assert matrix.sum() == 3.0

    def test_symmetric_adjacency_is_transpose(self, tiny_network):
        forward = tiny_network.adjacency("paper", "author")
        backward = tiny_network.adjacency("author", "paper")
        assert (forward.T != backward).nnz == 0

    def test_parallel_edges_accumulate(self, empty_network):
        p = empty_network.add_vertex("paper", "p")
        a = empty_network.add_vertex("author", "a")
        empty_network.add_edge(p, a)
        empty_network.add_edge(p, a)
        assert empty_network.adjacency("paper", "author")[0, 0] == 2.0

    def test_edge_count_parameter(self, empty_network):
        p = empty_network.add_vertex("paper", "p")
        a = empty_network.add_vertex("author", "a")
        empty_network.add_edge(p, a, count=3.0)
        assert empty_network.adjacency("author", "paper")[0, 0] == 3.0

    def test_nonpositive_count_rejected(self, empty_network):
        p = empty_network.add_vertex("paper", "p")
        a = empty_network.add_vertex("author", "a")
        with pytest.raises(NetworkError, match="positive"):
            empty_network.add_edge(p, a, count=0)

    def test_unregistered_edge_type_rejected(self, empty_network):
        a = empty_network.add_vertex("author", "a")
        v = empty_network.add_vertex("venue", "v")
        with pytest.raises(NetworkError, match="author-venue"):
            empty_network.add_edge(a, v)

    def test_edge_to_missing_vertex_rejected(self, empty_network):
        p = empty_network.add_vertex("paper", "p")
        with pytest.raises(VertexNotFoundError):
            empty_network.add_edge(p, VertexId("author", 5))

    def test_num_edges(self, tiny_network):
        assert tiny_network.num_edges() == 5

    def test_adjacency_reflects_late_vertices(self, tiny_network):
        """Adding a vertex after a matrix was built must grow the matrix."""
        before = tiny_network.adjacency("paper", "author").shape
        zoe = tiny_network.add_vertex("author", "Zoe")
        p3 = tiny_network.add_vertex("paper", "p3")
        tiny_network.add_edge(p3, zoe)
        after = tiny_network.adjacency("paper", "author")
        assert before == (2, 2)
        assert after.shape == (3, 3)
        assert after[2, 2] == 1.0

    def test_adjacency_for_edge_type_with_no_edges(self, tiny_network):
        matrix = tiny_network.adjacency("paper", "term")
        assert matrix.shape == (2, 0)
        assert matrix.nnz == 0

    def test_adjacency_unregistered_type_pair(self, tiny_network):
        with pytest.raises(NetworkError):
            tiny_network.adjacency("author", "venue")


class TestTraversalHelpers:
    def test_degree(self, tiny_network):
        liam = tiny_network.find_vertex("author", "Liam")
        assert tiny_network.degree(liam, "paper") == 2.0

    def test_neighbors(self, tiny_network):
        liam = tiny_network.find_vertex("author", "Liam")
        papers = tiny_network.neighbors(liam, "paper")
        assert {tiny_network.vertex_name(p) for p in papers} == {"p1", "p2"}

    def test_neighbor_counts(self, empty_network):
        p = empty_network.add_vertex("paper", "p")
        a = empty_network.add_vertex("author", "a")
        empty_network.add_edge(p, a, count=2.0)
        assert empty_network.neighbor_counts(a, "paper") == {0: 2.0}

    def test_neighbors_of_isolated_vertex(self, tiny_network):
        lone = tiny_network.add_vertex("author", "Lone")
        assert tiny_network.neighbors(lone, "paper") == []


class TestVertexIdOrdering:
    def test_sortable(self):
        ids = [VertexId("b", 1), VertexId("a", 5), VertexId("a", 2)]
        assert sorted(ids) == [VertexId("a", 2), VertexId("a", 5), VertexId("b", 1)]
