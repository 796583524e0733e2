"""Tests for :mod:`repro.hin.schema`."""

import pytest

from repro.exceptions import SchemaError
from repro.hin.schema import EdgeType, NetworkSchema, bibliographic_schema


class TestEdgeType:
    def test_reversed_swaps_endpoints(self):
        assert EdgeType("paper", "author").reversed() == EdgeType("author", "paper")

    def test_str(self):
        assert str(EdgeType("paper", "venue")) == "paper-venue"

    def test_equality_and_hash(self):
        assert EdgeType("a", "b") == EdgeType("a", "b")
        assert EdgeType("a", "b") != EdgeType("b", "a")
        assert len({EdgeType("a", "b"), EdgeType("a", "b")}) == 1


class TestVertexTypes:
    def test_add_and_query(self):
        schema = NetworkSchema(["author"])
        assert schema.has_vertex_type("author")
        assert not schema.has_vertex_type("paper")

    def test_duplicate_add_is_noop(self):
        schema = NetworkSchema()
        schema.add_vertex_type("author")
        schema.add_vertex_type("author")
        assert schema.vertex_types == frozenset({"author"})

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            NetworkSchema([""])

    def test_non_identifier_rejected(self):
        with pytest.raises(SchemaError):
            NetworkSchema(["has space"])

    def test_non_string_rejected(self):
        with pytest.raises(SchemaError):
            NetworkSchema([42])

    def test_lone_surrogate_rejected(self):
        """A type name must be an identifier, and a lone surrogate is not
        an identifier character: no such name reaches a reply."""
        with pytest.raises(SchemaError):
            NetworkSchema(["author\ud800"])


class TestEdgeTypes:
    def test_symmetric_registration(self):
        schema = NetworkSchema(["paper", "author"])
        schema.add_edge_type("paper", "author")
        assert schema.has_edge_type("paper", "author")
        assert schema.has_edge_type("author", "paper")

    def test_asymmetric_registration(self):
        schema = NetworkSchema(["paper", "author"])
        schema.add_edge_type("paper", "author", symmetric=False)
        assert schema.has_edge_type("paper", "author")
        assert not schema.has_edge_type("author", "paper")

    def test_unknown_endpoint_rejected(self):
        schema = NetworkSchema(["paper"])
        with pytest.raises(SchemaError, match="not declared"):
            schema.add_edge_type("paper", "author")

    def test_neighbor_types(self):
        schema = bibliographic_schema()
        assert schema.neighbor_types("paper") == frozenset(
            {"author", "venue", "term"}
        )
        assert schema.neighbor_types("author") == frozenset({"paper"})

    def test_neighbor_types_unknown_type(self):
        with pytest.raises(SchemaError):
            bibliographic_schema().neighbor_types("galaxy")


class TestTypeSequenceValidation:
    def test_valid_sequence(self):
        bibliographic_schema().validate_type_sequence(["author", "paper", "venue"])

    def test_single_type_is_valid(self):
        bibliographic_schema().validate_type_sequence(["author"])

    def test_empty_sequence_rejected(self):
        with pytest.raises(SchemaError, match="at least one"):
            bibliographic_schema().validate_type_sequence([])

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError, match="unknown vertex type"):
            bibliographic_schema().validate_type_sequence(["author", "galaxy"])

    def test_illegal_step_rejected(self):
        # author-venue is not a direct edge type in the bibliographic schema.
        with pytest.raises(SchemaError, match="author-venue"):
            bibliographic_schema().validate_type_sequence(["author", "venue"])


class TestLength2Enumeration:
    def test_bibliographic_length2_paths(self):
        paths = set(bibliographic_schema().length2_metapaths())
        # Every length-2 path pivots through `paper` or starts at it.
        assert ("author", "paper", "venue") in paths
        assert ("author", "paper", "author") in paths
        assert ("paper", "author", "paper") in paths
        assert ("venue", "paper", "term") in paths
        # 3 symmetric relations around paper: from each non-paper type there
        # are 3 choices of second hop (3*3=9), plus paper-X-paper (3).
        assert len(paths) == 12

    def test_all_paths_are_schema_legal(self):
        schema = bibliographic_schema()
        for types in schema.length2_metapaths():
            schema.validate_type_sequence(types)


class TestEquality:
    def test_equal_schemas(self):
        assert bibliographic_schema() == bibliographic_schema()

    def test_unequal_schemas(self):
        other = NetworkSchema(["author"])
        assert bibliographic_schema() != other

    def test_comparison_with_non_schema(self):
        assert bibliographic_schema() != "schema"
