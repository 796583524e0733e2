"""Tests for :mod:`repro.hin.io` (JSON and TSV round-trips)."""

import io
import json

import pytest

from repro.exceptions import NetworkError
from repro.hin import bibliographic_schema
from repro.hin.io import (
    load_json,
    network_from_dict,
    network_to_dict,
    read_edge_list,
    save_json,
    write_edge_list,
)


def _networks_equal(a, b) -> bool:
    if a.schema != b.schema:
        return False
    for vertex_type in a.schema.vertex_types:
        if a.vertex_names(vertex_type) != b.vertex_names(vertex_type):
            return False
    for edge_type in a.schema.edge_types:
        left = a.adjacency(edge_type.source, edge_type.target)
        right = b.adjacency(edge_type.source, edge_type.target)
        if left.shape != right.shape or (left != right).nnz != 0:
            return False
    return True


class TestJsonRoundTrip:
    def test_dict_round_trip(self, figure1):
        data = network_to_dict(figure1)
        restored = network_from_dict(data)
        assert _networks_equal(figure1, restored)

    def test_file_round_trip(self, figure1, tmp_path):
        path = tmp_path / "net.json"
        save_json(figure1, path)
        restored = load_json(path)
        assert _networks_equal(figure1, restored)

    def test_attributes_survive(self, tmp_path):
        from repro.hin import BibliographicNetworkBuilder, Publication

        builder = BibliographicNetworkBuilder()
        builder.add_publication(
            Publication("p1", ["Ava"], "KDD", title="Graphs", year=2013)
        )
        net = builder.build()
        path = tmp_path / "net.json"
        save_json(net, path)
        restored = load_json(path)
        paper = restored.vertex(restored.find_vertex("paper", "p1"))
        assert paper.attributes == {"year": 2013, "title": "Graphs"}

    def test_unknown_format_version_rejected(self, figure1):
        data = network_to_dict(figure1)
        data["format_version"] = 99
        with pytest.raises(NetworkError, match="format version"):
            network_from_dict(data)

    def test_lone_surrogate_name_refused_on_load(self, figure1, tmp_path):
        """``"\\ud800"`` is valid JSON but not Unicode text: a network naming
        a vertex with it must not load (its name has no UTF-8 form)."""
        data = network_to_dict(figure1)
        data["vertices"]["author"][0]["name"] = "Zo\ud800e"
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data), encoding="ascii")
        with pytest.raises(NetworkError, match="lone surrogate"):
            load_json(path)

    def test_parallel_edge_counts_survive(self, figure2, tmp_path):
        path = tmp_path / "net.json"
        save_json(figure2, path)
        restored = load_json(path)
        assert _networks_equal(figure2, restored)


class TestEdgeListRoundTrip:
    def test_round_trip(self, figure1):
        buffer = io.StringIO()
        lines = write_edge_list(figure1, buffer)
        assert lines > 0
        buffer.seek(0)
        restored = read_edge_list(buffer, bibliographic_schema())
        # Vertex insertion order differs, so compare by names and degrees.
        for vertex_type in ("author", "paper", "venue", "term"):
            assert set(restored.vertex_names(vertex_type)) == set(
                figure1.vertex_names(vertex_type)
            )
        zoe_orig = figure1.find_vertex("author", "Zoe")
        zoe_new = restored.find_vertex("author", "Zoe")
        assert figure1.degree(zoe_orig, "paper") == restored.degree(zoe_new, "paper")

    def test_comments_and_blank_lines_skipped(self):
        text = "# comment\n\npaper\tp1\tauthor\tAva\n"
        restored = read_edge_list(io.StringIO(text), bibliographic_schema())
        assert restored.num_edges() == 1

    def test_explicit_count_column(self):
        text = "paper\tp1\tauthor\tAva\t2\n"
        restored = read_edge_list(io.StringIO(text), bibliographic_schema())
        assert restored.adjacency("paper", "author")[0, 0] == 2.0

    def test_malformed_line_rejected(self):
        text = "paper\tp1\tauthor\n"
        with pytest.raises(NetworkError, match="line 1"):
            read_edge_list(io.StringIO(text), bibliographic_schema())

    def test_symmetric_relations_written_once(self, figure1):
        buffer = io.StringIO()
        lines = write_edge_list(figure1, buffer)
        assert lines == figure1.num_edges()
