"""Tests for :mod:`repro.hin.builder` and :mod:`repro.hin.bibliographic`."""

import pytest

from repro.exceptions import NetworkError
from repro.hin.bibliographic import (
    BibliographicNetworkBuilder,
    Publication,
    tokenize_title,
)
from repro.hin.builder import NetworkBuilder
from repro.hin.schema import bibliographic_schema


class TestNetworkBuilder:
    def test_add_edge_creates_vertices(self):
        builder = NetworkBuilder(bibliographic_schema())
        builder.add_edge("paper", "p1", "author", "Ava")
        net = builder.build()
        assert net.has_vertex("paper", "p1")
        assert net.has_vertex("author", "Ava")
        assert net.num_edges() == 1

    def test_add_edges_bulk(self):
        builder = NetworkBuilder(bibliographic_schema())
        builder.add_edges("paper", "author", [("p1", "Ava"), ("p1", "Liam")])
        assert builder.build().num_edges() == 2

    def test_builder_is_incremental(self):
        builder = NetworkBuilder(bibliographic_schema())
        builder.add_edge("paper", "p1", "author", "Ava")
        net = builder.build()
        builder.add_edge("paper", "p2", "author", "Ava")
        # build() returns the live network; later additions are visible.
        assert net.num_edges() == 2

    def test_add_vertex_with_attributes(self):
        builder = NetworkBuilder(bibliographic_schema())
        vid = builder.add_vertex("paper", "p1", {"year": 2015})
        assert builder.build().vertex(vid).attributes == {"year": 2015}


class TestTokenizeTitle:
    def test_basic_tokenization(self):
        assert tokenize_title("Mining Outliers in Large Networks") == [
            "mining",
            "outliers",
            "large",
            "networks",
        ]

    def test_stop_words_removed(self):
        assert tokenize_title("the a of and") == []

    def test_punctuation_and_case(self):
        assert tokenize_title("Graph-Based Query: A Survey!") == [
            "graph-based",
            "query",
            "survey",
        ]

    def test_numbers_kept(self):
        assert "2015" in tokenize_title("EDBT 2015 proceedings")


class TestPublication:
    def test_terms_override_title(self):
        pub = Publication("p", ["A"], "V", title="some title", terms=["x", "y"])
        assert pub.term_list() == ["x", "y"]

    def test_title_tokenized_when_no_terms(self):
        pub = Publication("p", ["A"], "V", title="graph mining")
        assert pub.term_list() == ["graph", "mining"]


class TestBibliographicNetworkBuilder:
    def test_expansion_creates_all_link_types(self):
        builder = BibliographicNetworkBuilder()
        builder.add_publication(
            Publication("p1", ["Ava", "Liam"], "KDD", terms=["graphs", "mining"])
        )
        net = builder.build()
        assert net.num_vertices("author") == 2
        assert net.num_vertices("venue") == 1
        assert net.num_vertices("term") == 2
        # 2 author links + 1 venue link + 2 term links.
        assert net.num_edges() == 5

    def test_missing_venue_becomes_null_vertex(self):
        builder = BibliographicNetworkBuilder()
        builder.add_publication(Publication("p1", ["Ava"], None, terms=["t"]))
        net = builder.build()
        assert net.has_vertex("venue", "NULL")

    def test_missing_venue_skipped_when_disabled(self):
        builder = BibliographicNetworkBuilder(null_venue_name=None)
        builder.add_publication(Publication("p1", ["Ava"], None, terms=["t"]))
        net = builder.build()
        assert net.num_vertices("venue") == 0

    def test_no_authors_rejected(self):
        builder = BibliographicNetworkBuilder()
        with pytest.raises(NetworkError, match="no authors"):
            builder.add_publication(Publication("p1", [], "KDD"))

    def test_year_and_title_stored_as_attributes(self):
        builder = BibliographicNetworkBuilder()
        builder.add_publication(
            Publication("p1", ["Ava"], "KDD", title="Graphs", year=2014)
        )
        net = builder.build()
        paper = net.vertex(net.find_vertex("paper", "p1"))
        assert paper.attributes == {"year": 2014, "title": "Graphs"}

    def test_publication_count(self):
        builder = BibliographicNetworkBuilder()
        builder.add_publications(
            [Publication("p1", ["A"], "V"), Publication("p2", ["B"], "V")]
        )
        assert builder.build().num_vertices("paper") == 2

    def test_shared_authors_across_publications(self):
        builder = BibliographicNetworkBuilder()
        builder.add_publications(
            [
                Publication("p1", ["Ava"], "KDD", terms=["t"]),
                Publication("p2", ["Ava"], "ICDE", terms=["t"]),
            ]
        )
        net = builder.build()
        assert net.num_vertices("author") == 1
        ava = net.find_vertex("author", "Ava")
        assert net.degree(ava, "paper") == 2.0
