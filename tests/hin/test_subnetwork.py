"""Tests for :mod:`repro.hin.subnetwork`."""

import pytest

from repro.exceptions import NetworkError, VertexNotFoundError
from repro.hin.bibliographic import BibliographicNetworkBuilder, Publication
from repro.hin.network import VertexId
from repro.hin.subnetwork import induced_subnetwork, slice_by_attribute


@pytest.fixture()
def dated_network():
    builder = BibliographicNetworkBuilder()
    builder.add_publications(
        [
            Publication("p90", ["Ava", "Liam"], "KDD", terms=["old"], year=1990),
            Publication("p05", ["Ava"], "ICDE", terms=["mid"], year=2005),
            Publication("p15", ["Zoe", "Ava"], "ICDE", terms=["new"], year=2015),
            Publication("p16", ["Zoe"], "KDD", terms=["new"], year=2016),
        ]
    )
    return builder.build()


class TestInducedSubnetwork:
    def test_predicate_filters_vertices(self, dated_network):
        sliced = induced_subnetwork(
            dated_network,
            {"paper": lambda v: v.attributes.get("year", 0) >= 2010},
        )
        assert sliced.num_vertices("paper") == 2
        # Unmentioned types keep all vertices...
        assert sliced.num_vertices("author") == 3

    def test_edges_only_between_survivors(self, dated_network):
        sliced = induced_subnetwork(
            dated_network,
            {"paper": lambda v: v.attributes.get("year", 0) >= 2010},
        )
        liam = sliced.find_vertex("author", "Liam")
        # Liam's only paper (p90) was filtered out.
        assert sliced.degree(liam, "paper") == 0.0
        zoe = sliced.find_vertex("author", "Zoe")
        assert sliced.degree(zoe, "paper") == 2.0

    def test_attributes_preserved(self, dated_network):
        sliced = induced_subnetwork(dated_network, {"paper": lambda v: True})
        paper = sliced.vertex(sliced.find_vertex("paper", "p15"))
        assert paper.attributes["year"] == 2015

    def test_explicit_vertex_set_is_exhaustive(self, dated_network):
        ava = dated_network.find_vertex("author", "Ava")
        p05 = dated_network.find_vertex("paper", "p05")
        sliced = induced_subnetwork(dated_network, vertices=[ava, p05])
        assert sliced.num_vertices("author") == 1
        assert sliced.num_vertices("paper") == 1
        assert sliced.num_vertices("venue") == 0
        new_ava = sliced.find_vertex("author", "Ava")
        assert sliced.degree(new_ava, "paper") == 1.0

    def test_duplicate_vertices_deduplicated(self, dated_network):
        ava = dated_network.find_vertex("author", "Ava")
        sliced = induced_subnetwork(dated_network, vertices=[ava, ava])
        assert sliced.num_vertices("author") == 1

    def test_both_arguments_rejected(self, dated_network):
        with pytest.raises(NetworkError, match="exactly one"):
            induced_subnetwork(dated_network, {}, vertices=[])

    def test_neither_argument_rejected(self, dated_network):
        with pytest.raises(NetworkError, match="exactly one"):
            induced_subnetwork(dated_network)

    def test_unknown_type_in_vertex_set(self, dated_network):
        with pytest.raises(NetworkError):
            induced_subnetwork(dated_network, vertices=[VertexId("galaxy", 0)])

    @pytest.mark.parametrize("index", [-1, 99])
    def test_unknown_index_in_vertex_set(self, dated_network, index):
        with pytest.raises(VertexNotFoundError):
            induced_subnetwork(dated_network, vertices=[VertexId("author", index)])

    def test_parallel_edge_counts_preserved(self, figure2):
        sliced = induced_subnetwork(figure2, {"author": lambda v: True})
        jim = sliced.find_vertex("author", "Jim")
        assert sliced.degree(jim, "paper") == 12.0

    def test_path_counts_change_with_slice(self, dated_network):
        """Slicing re-scopes the data: path counts shrink accordingly."""
        from repro.metapath.counting import neighbor_counts
        from repro.metapath.metapath import MetaPath

        sliced = induced_subnetwork(
            dated_network,
            {"paper": lambda v: v.attributes.get("year", 0) >= 2010},
        )
        path = MetaPath.parse("author.paper.venue")
        ava_full = neighbor_counts(
            dated_network, path, dated_network.find_vertex("author", "Ava")
        )
        ava_sliced = neighbor_counts(
            sliced, path, sliced.find_vertex("author", "Ava")
        )
        assert sum(ava_full.values()) == 3.0
        assert sum(ava_sliced.values()) == 1.0


class TestSliceByAttribute:
    def test_minimum(self, dated_network):
        sliced = slice_by_attribute(dated_network, "paper", "year", minimum=2010)
        assert set(sliced.vertex_names("paper")) == {"p15", "p16"}

    def test_range(self, dated_network):
        sliced = slice_by_attribute(
            dated_network, "paper", "year", minimum=2000, maximum=2010
        )
        assert set(sliced.vertex_names("paper")) == {"p05"}

    def test_missing_attribute_dropped_by_default(self, dated_network):
        yearless = dated_network.add_vertex("paper", "draft")
        sliced = slice_by_attribute(dated_network, "paper", "year", minimum=0)
        assert not sliced.has_vertex("paper", "draft")

    def test_missing_attribute_kept_when_asked(self, dated_network):
        dated_network.add_vertex("paper", "draft")
        sliced = slice_by_attribute(
            dated_network, "paper", "year", minimum=0, drop_missing=False
        )
        assert sliced.has_vertex("paper", "draft")

    def test_no_bounds_rejected(self, dated_network):
        with pytest.raises(NetworkError, match="at least one"):
            slice_by_attribute(dated_network, "paper", "year")

    def test_queries_on_slice(self, dated_network):
        """End to end: outliers in the post-2010 slice only."""
        from repro.engine.detector import OutlierDetector

        sliced = slice_by_attribute(dated_network, "paper", "year", minimum=2010)
        detector = OutlierDetector(sliced)
        result = detector.detect(
            "FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) >= 1 "
            "JUDGED BY author.paper.venue TOP 2;"
        )
        assert set(result.names()) <= {"Ava", "Zoe"}
