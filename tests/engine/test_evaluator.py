"""Tests for :mod:`repro.engine.evaluator` (set-expression evaluation)."""

import numpy as np
import pytest

from repro.engine.evaluator import SetEvaluator
from repro.engine.executor import QueryExecutor
from repro.engine.strategies import BaselineStrategy, PMStrategy
from repro.exceptions import ExecutionError, VertexNotFoundError
from repro.query.parser import parse_set_expression


@pytest.fixture()
def evaluator(figure1):
    return SetEvaluator(BaselineStrategy(figure1))


def names_of(network, member_type, members):
    all_names = network.vertex_names(member_type)
    return {all_names[i] for i in members}


class TestChains:
    def test_single_anchored_vertex(self, figure1, evaluator):
        member_type, members = evaluator.evaluate(parse_set_expression('venue{"KDD"}'))
        assert member_type == "venue"
        assert names_of(figure1, member_type, members) == {"KDD"}

    def test_anchored_walk(self, figure1, evaluator):
        expression = parse_set_expression('venue{"ICDE"}.paper.author')
        member_type, members = evaluator.evaluate(expression)
        assert names_of(figure1, member_type, members) == {"Ava", "Liam", "Zoe"}

    def test_coauthor_set_includes_anchor(self, figure1, evaluator):
        """author{X}.paper.author includes X itself (self-paths exist)."""
        expression = parse_set_expression('author{"Zoe"}.paper.author')
        __, members = evaluator.evaluate(expression)
        assert names_of(figure1, "author", members) == {"Ava", "Liam", "Zoe"}

    def test_bare_type_selects_all(self, figure1, evaluator):
        __, members = evaluator.evaluate(parse_set_expression("author"))
        assert len(members) == figure1.num_vertices("author")

    def test_unanchored_chain(self, figure1, evaluator):
        """venue.paper.author = all authors having a paper with a venue."""
        __, members = evaluator.evaluate(parse_set_expression("venue.paper.author"))
        assert names_of(figure1, "author", members) == {"Ava", "Liam", "Zoe"}

    def test_missing_anchor_raises(self, evaluator):
        with pytest.raises(VertexNotFoundError):
            evaluator.evaluate(parse_set_expression('venue{"VLDB"}.paper.author'))

    def test_results_sorted(self, figure1, evaluator):
        __, members = evaluator.evaluate(parse_set_expression("author"))
        assert members.tolist() == sorted(members.tolist())


class TestSetOperations:
    def test_union(self, figure1, evaluator):
        expression = parse_set_expression(
            'venue{"ICDE"}.paper.author UNION venue{"KDD"}.paper.author'
        )
        __, members = evaluator.evaluate(expression)
        assert names_of(figure1, "author", members) == {"Ava", "Liam", "Zoe"}

    def test_intersect(self, figure1, evaluator):
        expression = parse_set_expression(
            'venue{"ICDE"}.paper.author INTERSECT venue{"KDD"}.paper.author'
        )
        __, members = evaluator.evaluate(expression)
        # Only Zoe published in both venues.
        assert names_of(figure1, "author", members) == {"Zoe"}

    def test_except(self, figure1, evaluator):
        expression = parse_set_expression(
            'venue{"ICDE"}.paper.author EXCEPT venue{"KDD"}.paper.author'
        )
        __, members = evaluator.evaluate(expression)
        assert names_of(figure1, "author", members) == {"Ava", "Liam"}

    def test_nested_operations(self, figure1, evaluator):
        expression = parse_set_expression(
            '(venue{"ICDE"}.paper.author EXCEPT venue{"KDD"}.paper.author) '
            'UNION author{"Zoe"}'
        )
        __, members = evaluator.evaluate(expression)
        assert names_of(figure1, "author", members) == {"Ava", "Liam", "Zoe"}


class TestWhereFilters:
    def test_count_filter(self, figure1, evaluator):
        expression = parse_set_expression(
            "author AS A WHERE COUNT(A.paper) >= 2"
        )
        __, members = evaluator.evaluate(expression)
        assert names_of(figure1, "author", members) == {"Liam", "Zoe"}

    def test_paths_filter(self, figure1, evaluator):
        # PATHS counts instances: Zoe has 5 papers -> 5 author.paper instances.
        expression = parse_set_expression("author AS A WHERE PATHS(A.paper) = 5")
        __, members = evaluator.evaluate(expression)
        assert names_of(figure1, "author", members) == {"Zoe"}

    def test_count_vs_paths_difference(self, figure1, evaluator):
        """COUNT is distinct venues; PATHS is venue link instances."""
        count_expr = parse_set_expression("author AS A WHERE COUNT(A.paper.venue) = 2")
        paths_expr = parse_set_expression("author AS A WHERE PATHS(A.paper.venue) = 5")
        __, by_count = evaluator.evaluate(count_expr)
        __, by_paths = evaluator.evaluate(paths_expr)
        # Zoe: 2 distinct venues but 5 venue links.
        assert names_of(figure1, "author", by_count) == {"Zoe"}
        assert names_of(figure1, "author", by_paths) == {"Zoe"}

    def test_and_or_not(self, figure1, evaluator):
        expression = parse_set_expression(
            "author AS A WHERE COUNT(A.paper) >= 1 AND NOT COUNT(A.paper) > 2"
        )
        __, members = evaluator.evaluate(expression)
        assert names_of(figure1, "author", members) == {"Ava", "Liam"}

    def test_or_combination(self, figure1, evaluator):
        expression = parse_set_expression(
            "author AS A WHERE COUNT(A.paper) = 1 OR COUNT(A.paper) = 5"
        )
        __, members = evaluator.evaluate(expression)
        assert names_of(figure1, "author", members) == {"Ava", "Zoe"}

    def test_filter_on_anchored_chain(self, figure1, evaluator):
        expression = parse_set_expression(
            'venue{"ICDE"}.paper.author AS A WHERE COUNT(A.paper) > 1'
        )
        __, members = evaluator.evaluate(expression)
        assert names_of(figure1, "author", members) == {"Liam", "Zoe"}

    def test_filter_to_empty_set(self, figure1, evaluator):
        expression = parse_set_expression("author AS A WHERE COUNT(A.paper) > 99")
        __, members = evaluator.evaluate(expression)
        assert members.tolist() == []

    def test_filtered_set_node(self, figure1, evaluator):
        expression = parse_set_expression(
            '(venue{"ICDE"}.paper.author UNION venue{"KDD"}.paper.author) AS A '
            "WHERE COUNT(A.paper) >= 2"
        )
        __, members = evaluator.evaluate(expression)
        assert names_of(figure1, "author", members) == {"Liam", "Zoe"}


class TestStrategyIndependence:
    def test_same_result_under_pm(self, figure1):
        expression = parse_set_expression(
            'venue{"ICDE"}.paper.author AS A WHERE COUNT(A.paper) > 1'
        )
        baseline_type, baseline = SetEvaluator(BaselineStrategy(figure1)).evaluate(
            expression
        )
        pm_type, pm = SetEvaluator(PMStrategy(figure1)).evaluate(expression)
        assert baseline_type == pm_type
        assert baseline.tolist() == pm.tolist()


# Member lists as the list-returning evaluator (before PR 24) produced them,
# pinned literally: the set operators, both WHERE functions under each of the
# six comparators, unanchored chains, a bare type and a single anchored vertex.
FIGURE1 = {
    'venue{"ICDE"}.paper.author UNION venue{"KDD"}.paper.author': ("author", [0, 1, 2]),
    'venue{"ICDE"}.paper.author INTERSECT venue{"KDD"}.paper.author': ("author", [0]),
    'venue{"ICDE"}.paper.author EXCEPT venue{"KDD"}.paper.author': ("author", [1, 2]),
    'venue{"KDD"}.paper.author EXCEPT venue{"KDD"}.paper.author': ("author", []),
    'venue.paper.author': ("author", [0, 1, 2]),
    'term.paper.venue': ("venue", [0, 1]),
    "author": ("author", [0, 1, 2]),
    'venue{"KDD"}': ("venue", [1]),
    'author AS A WHERE COUNT(A.paper) > 2': ("author", [0]),
    'author AS A WHERE COUNT(A.paper) >= 2': ("author", [0, 2]),
    'author AS A WHERE COUNT(A.paper) < 2': ("author", [1]),
    'author AS A WHERE COUNT(A.paper) <= 2': ("author", [1, 2]),
    'author AS A WHERE COUNT(A.paper) = 2': ("author", [2]),
    'author AS A WHERE COUNT(A.paper) != 2': ("author", [0, 1]),
    'author AS A WHERE PATHS(A.paper.venue) > 2': ("author", [0]),
    'author AS A WHERE PATHS(A.paper.venue) >= 2': ("author", [0, 2]),
    'author AS A WHERE PATHS(A.paper.venue) < 2': ("author", [1]),
    'author AS A WHERE PATHS(A.paper.venue) <= 2': ("author", [1, 2]),
    'author AS A WHERE PATHS(A.paper.venue) = 2': ("author", [2]),
    'author AS A WHERE PATHS(A.paper.venue) != 2': ("author", [0, 1]),
}
SYNTHETIC = {
    'venue{"C0-Venue-0"}.paper.author UNION venue{"C1-Venue-0"}.paper.author': (
        "author",
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
         23, 24, 25, 26, 27, 28, 30, 31, 32, 33, 34, 35, 36, 37, 39, 40, 41, 42, 43,
         44, 45, 46, 47, 48, 49, 55, 56, 57, 58, 59, 60, 62, 63, 64, 65, 69, 70, 71,
         72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90,
         91, 92, 93, 94, 95, 96, 97, 98, 99, 100, 101, 102, 104, 105, 109, 110, 112],
    ),
    'venue{"C0-Venue-0"}.paper.author INTERSECT venue{"C0-Venue-1"}.paper.author': (
        "author",
        [1, 3, 4, 6, 8, 10, 11, 13, 15, 17, 20, 21, 23, 24, 27, 30, 32, 34, 35, 36,
         37, 39, 40, 43, 48],
    ),
    'venue{"C0-Venue-0"}.paper.author EXCEPT venue{"C0-Venue-1"}.paper.author': (
        "author",
        [0, 2, 5, 7, 12, 14, 16, 18, 25, 26, 28, 31, 33, 41, 42, 44, 45, 47, 49, 55,
         58, 59, 60, 62, 63, 65, 70, 79],
    ),
    'term.paper.venue': ("venue", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE COUNT(A.paper.venue) > 3': (
        "author",
        [1, 3, 4, 6, 8, 10, 11, 13, 17, 20, 21, 23, 27, 30, 32, 43, 56, 69, 76, 91],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE COUNT(A.paper.venue) >= 3': (
        "author",
        [1, 3, 4, 6, 8, 10, 11, 13, 15, 17, 19, 20, 21, 23, 27, 30, 32, 36, 37, 40,
         43, 48, 56, 57, 69, 76, 91],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE COUNT(A.paper.venue) < 3': (
        "author",
        [22, 24, 34, 35, 39, 50, 51, 52, 61, 68],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE COUNT(A.paper.venue) <= 3': (
        "author",
        [15, 19, 22, 24, 34, 35, 36, 37, 39, 40, 48, 50, 51, 52, 57, 61, 68],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE COUNT(A.paper.venue) = 3': (
        "author",
        [15, 19, 36, 37, 40, 48, 57],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE COUNT(A.paper.venue) != 3': (
        "author",
        [1, 3, 4, 6, 8, 10, 11, 13, 17, 20, 21, 22, 23, 24, 27, 30, 32, 34, 35, 39,
         43, 50, 51, 52, 56, 61, 68, 69, 76, 91],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE PATHS(A.paper.author) > 11': (
        "author",
        [1, 3, 4, 6, 8, 10, 11, 13, 15, 17, 20, 21, 22, 23, 24, 27, 30, 32, 34, 36,
         37, 43, 48, 56, 69, 76, 91],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE PATHS(A.paper.author) >= 11': (
        "author",
        [1, 3, 4, 6, 8, 10, 11, 13, 15, 17, 20, 21, 22, 23, 24, 27, 30, 32, 34, 35,
         36, 37, 43, 48, 56, 69, 76, 91],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE PATHS(A.paper.author) < 11': (
        "author",
        [19, 39, 40, 50, 51, 52, 57, 61, 68],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE PATHS(A.paper.author) <= 11': (
        "author",
        [19, 35, 39, 40, 50, 51, 52, 57, 61, 68],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE PATHS(A.paper.author) = 11': (
        "author",
        [35],
    ),
    'venue{"C0-Venue-1"}.paper.author AS A WHERE PATHS(A.paper.author) != 11': (
        "author",
        [1, 3, 4, 6, 8, 10, 11, 13, 15, 17, 19, 20, 21, 22, 23, 24, 27, 30, 32, 34,
         36, 37, 39, 40, 43, 48, 50, 51, 52, 56, 57, 61, 68, 69, 76, 91],
    ),
}


class TestSetsAreCanonicalArrays:
    """Every set is an ``int64`` array, strictly increasing, equal to the pin."""

    @staticmethod
    def check(network, expression, expected):
        for strategy in (BaselineStrategy(network), PMStrategy(network)):
            member_type, members = SetEvaluator(strategy).evaluate(
                parse_set_expression(expression)
            )
            assert isinstance(members, np.ndarray) and members.dtype == np.int64
            assert members.ndim == 1 and (np.diff(members) > 0).all()
            assert (member_type, members.tolist()) == expected

    @pytest.mark.parametrize("expression", FIGURE1)
    def test_figure1(self, figure1, expression):
        self.check(figure1, expression, FIGURE1[expression])

    @pytest.mark.parametrize("expression", SYNTHETIC)
    def test_synthetic(self, small_corpus, expression):
        self.check(small_corpus, expression, SYNTHETIC[expression])


class TestEmptySetsStayTypedErrors:
    """An empty array must not reach numpy's ambiguous-truth ``ValueError``."""

    def test_empty_candidates(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1))
        with pytest.raises(ExecutionError, match="the candidate set is empty"):
            executor.execute(
                "FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) > 99 "
                "JUDGED BY author.paper.venue TOP 3;"
            )

    def test_empty_reference(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1))
        with pytest.raises(ExecutionError, match="the reference set is empty"):
            executor.execute(
                "FIND OUTLIERS FROM author "
                "COMPARED TO author AS A WHERE COUNT(A.paper) > 99 "
                "JUDGED BY author.paper.venue TOP 3;"
            )
