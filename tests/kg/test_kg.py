"""Tests for :mod:`repro.kg` (open-schema knowledge graphs, paper §8)."""

import pytest

from repro.exceptions import ReproError
from repro.kg import KnowledgeGraph, movie_knowledge_graph
from repro.kg.triples import sanitize_identifier


class TestSanitize:
    def test_spaces_to_underscores(self):
        assert sanitize_identifier("acted in") == "acted_in"

    def test_namespace_colon(self):
        assert sanitize_identifier("rdf:type") == "rdf_type"

    def test_leading_digit_prefixed(self):
        assert sanitize_identifier("3d model") == "t_3d_model"

    def test_case_lowered(self):
        assert sanitize_identifier("ActedIn") == "actedin"

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            sanitize_identifier("!!!")


MOVIE_TRIPLES = (
    ("Tom", "type", "person"),
    ("Ann", "type", "person"),
    ("Heat", "type", "movie"),
    ("Tom", "acted in", "Heat"),
    ("Ann", "acted in", "Heat"),
    ("Ann", "directed", "Heat"),
)


class TestKnowledgeGraph:
    @pytest.fixture()
    def small_kg(self):
        kg = KnowledgeGraph()
        for triple in MOVIE_TRIPLES:
            kg.add(*triple)
        return kg

    def test_type_declarations_not_data_triples(self, small_kg):
        assert small_kg.triple_count == 3

    def test_entity_type_inference(self, small_kg):
        assert small_kg.entity_type("Tom") == "person"
        assert small_kg.entity_type("Heat") == "movie"

    def test_untyped_entities_get_default(self, small_kg):
        small_kg.add("Tom", "lives in", "LA")
        assert small_kg.entity_type("LA") == "entity"

    def test_conflicting_types_rejected(self, small_kg):
        with pytest.raises(ReproError, match="conflicting"):
            small_kg.add("Tom", "type", "movie")

    def test_empty_fields_rejected(self):
        with pytest.raises(ReproError):
            KnowledgeGraph().add("", "p", "o")

    def test_predicates_sanitized(self, small_kg):
        assert small_kg.predicates() == {"acted_in", "directed"}

    def test_from_text(self):
        kg = KnowledgeGraph.from_text(
            "# a comment\n"
            "Tom\ttype\tperson\n"
            "Heat\ttype\tmovie\n"
            "Tom\tacted in\tHeat\n"
        )
        assert kg.triple_count == 1
        assert kg.entity_type("Tom") == "person"

    def test_from_text_malformed_line(self):
        with pytest.raises(ReproError, match="line 1"):
            KnowledgeGraph.from_text("just two\tfields\n")


class TestReifiedConversion:
    @pytest.fixture()
    def network(self):
        kg = KnowledgeGraph()
        for triple in MOVIE_TRIPLES:
            kg.add(*triple)
        return kg.to_hin()

    def test_predicates_become_vertex_types(self, network):
        assert network.schema.has_vertex_type("acted_in")
        assert network.schema.has_vertex_type("directed")

    def test_statement_vertices_created(self, network):
        assert network.num_vertices("acted_in") == 2
        assert network.num_vertices("directed") == 1

    def test_metapath_through_predicate(self, network):
        """person.acted_in.movie counts acting credits."""
        from repro.metapath.counting import count_path_instances
        from repro.metapath.metapath import MetaPath

        tom = network.find_vertex("person", "Tom")
        heat = network.find_vertex("movie", "Heat")
        path = MetaPath.parse("person.acted_in.movie")
        assert count_path_instances(network, path, tom, heat) == 1.0

    def test_distinct_predicates_distinguishable(self, network):
        """directed and acted_in paths count different things."""
        from repro.metapath.counting import count_path_instances
        from repro.metapath.metapath import MetaPath

        ann = network.find_vertex("person", "Ann")
        heat = network.find_vertex("movie", "Heat")
        acted = count_path_instances(
            network, MetaPath.parse("person.acted_in.movie"), ann, heat
        )
        directed = count_path_instances(
            network, MetaPath.parse("person.directed.movie"), ann, heat
        )
        assert acted == 1.0 and directed == 1.0
        tom = network.find_vertex("person", "Tom")
        assert count_path_instances(
            network, MetaPath.parse("person.directed.movie"), tom, heat
        ) == 0.0

    def test_predicate_type_collision_rejected(self):
        kg = KnowledgeGraph()
        kg.add("X", "type", "person")
        kg.add("Y", "type", "person")
        kg.add("X", "person", "Y")  # predicate named like a type
        with pytest.raises(ReproError, match="collide"):
            kg.to_hin()


class TestDirectConversion:
    def test_direct_edges(self):
        kg = KnowledgeGraph()
        kg.add("Tom", "type", "person")
        kg.add("Heat", "type", "movie")
        kg.add("Tom", "acted in", "Heat")
        network = kg.to_hin(reify_predicates=False)
        assert not network.schema.has_vertex_type("acted_in")
        tom = network.find_vertex("person", "Tom")
        assert network.degree(tom, "movie") == 1.0

    def test_predicates_merge(self):
        kg = KnowledgeGraph()
        kg.add("Ann", "type", "person")
        kg.add("Heat", "type", "movie")
        kg.add("Ann", "acted in", "Heat")
        kg.add("Ann", "directed", "Heat")
        network = kg.to_hin(reify_predicates=False)
        ann = network.find_vertex("person", "Ann")
        assert network.degree(ann, "movie") == 2.0


class TestMovieDemo:
    @pytest.fixture(scope="class")
    def corpus(self):
        return movie_knowledge_graph(seed=3)

    def test_deterministic(self):
        first = movie_knowledge_graph(seed=5)
        second = movie_knowledge_graph(seed=5)
        assert list(first.graph.triples()) == list(second.graph.triples())

    def test_planted_outlier_found_by_query(self, corpus):
        """The §8 end goal: outlier queries run on a knowledge graph."""
        from repro.engine.detector import OutlierDetector

        network = corpus.graph.to_hin()
        detector = OutlierDetector(network, strategy="pm")
        # Candidates: co-actors of a drama cluster member; judged by the
        # genres of the movies they act in.
        anchor = corpus.cluster_actors[0]
        result = detector.detect(
            f'FIND OUTLIERS FROM movie{{"Drama Movie 00"}}.acted_in.person '
            "JUDGED BY person.acted_in.movie.has_genre.genre "
            "TOP 1;"
        )
        assert result.names() == [corpus.outlier_actor]
