"""Tests for :mod:`repro.query.parser`, including every example in the paper."""

import pytest

from repro.exceptions import QuerySyntaxError
from repro.query.ast import (
    BooleanCondition,
    Chain,
    Comparison,
    FeaturePath,
    FilteredSet,
    NotCondition,
    Query,
    SetOperation,
)
from repro.query.parser import parse_query, parse_set_expression


class TestPaperExampleQueries:
    """The three example queries of Section 4.3 must parse exactly."""

    def test_example1_christos_venues(self):
        query = parse_query(
            """
            FIND OUTLIERS
            FROM author{"Christos Faloutsos"}.paper.author
            JUDGED BY author.paper.venue
            TOP 10;
            """
        )
        assert query.candidates == Chain(
            types=("author", "paper", "author"), anchor="Christos Faloutsos"
        )
        assert query.reference is None
        assert query.features == (FeaturePath(("author", "paper", "venue")),)
        assert query.top_k == 10

    def test_example2_compared_to_kdd(self):
        query = parse_query(
            """
            FIND OUTLIERS
            FROM author{"Christos Faloutsos"}.paper.author
            COMPARED TO venue{"KDD"}.paper.author
            JUDGED BY author.paper.venue, author.paper.author
            TOP 10;
            """
        )
        assert query.reference == Chain(
            types=("venue", "paper", "author"), anchor="KDD"
        )
        assert len(query.features) == 2
        assert query.features[1] == FeaturePath(("author", "paper", "author"))

    def test_example3_sigmod_where_and_weights(self):
        query = parse_query(
            """
            FIND OUTLIERS
            FROM venue{"SIGMOD"}.paper.author AS A
                WHERE COUNT(A.paper) >= 5
            JUDGED BY
                author.paper.author,
                author.paper.term : 3.0
            TOP 50;
            """
        )
        candidates = query.candidates
        assert isinstance(candidates, Chain)
        assert candidates.alias == "A"
        assert candidates.where == Comparison(
            function="COUNT", alias="A", steps=("paper",), operator=">=", value=5.0
        )
        assert query.features == (
            FeaturePath(("author", "paper", "author"), 1.0),
            FeaturePath(("author", "paper", "term"), 3.0),
        )
        assert query.top_k == 50

    def test_table4_in_keyword_variant(self):
        """Table 4 templates use FIND OUTLIERS IN — accepted as FROM."""
        query = parse_query(
            'FIND OUTLIERS IN author{"x"}.paper.venue '
            "JUDGED BY venue.paper.term TOP 10;"
        )
        assert query.candidates == Chain(
            types=("author", "paper", "venue"), anchor="x"
        )


class TestClauseStructure:
    def test_semicolon_optional(self):
        text = 'FIND OUTLIERS FROM author{"x"}.paper.author JUDGED BY author.paper.venue TOP 5'
        assert parse_query(text).top_k == 5

    def test_top_clause_optional_defaults_to_10(self):
        text = 'FIND OUTLIERS FROM author{"x"}.paper.author JUDGED BY author.paper.venue;'
        assert parse_query(text).top_k == 10

    def test_missing_judged_by_rejected(self):
        with pytest.raises(QuerySyntaxError, match="JUDGED"):
            parse_query('FIND OUTLIERS FROM author{"x"}.paper.author TOP 5;')

    def test_missing_from_rejected(self):
        with pytest.raises(QuerySyntaxError, match="FROM or IN"):
            parse_query("FIND OUTLIERS JUDGED BY a.p TOP 5;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QuerySyntaxError, match="trailing"):
            parse_query(
                'FIND OUTLIERS FROM author{"x"}.paper.author '
                "JUDGED BY author.paper.venue TOP 5; extra"
            )

    def test_top_zero_rejected(self):
        with pytest.raises(QuerySyntaxError, match="positive"):
            parse_query(
                'FIND OUTLIERS FROM author{"x"}.paper.author '
                "JUDGED BY author.paper.venue TOP 0;"
            )

    def test_top_decimal_rejected(self):
        with pytest.raises(QuerySyntaxError, match="integer"):
            parse_query(
                'FIND OUTLIERS FROM author{"x"}.paper.author '
                "JUDGED BY author.paper.venue TOP 2.5;"
            )

    @pytest.mark.parametrize("tail", [" TOP ²;", " TOP ٣;", ":1.5² TOP 2;"])
    def test_non_ascii_digit_rejected(self, tail):
        """Only ASCII 0-9 make a number: "²" escaped int() / float() as a
        bare ValueError, and "٣" was read as TOP 3."""
        with pytest.raises(QuerySyntaxError, match="unexpected character"):
            parse_query("FIND OUTLIERS FROM author JUDGED BY author.paper.venue" + tail)

    @pytest.mark.parametrize(
        "tail",
        [": " + "9" * 400 + " TOP 2;", ": 1" + "0" * 309 + ".5;"],
        ids=["weight-integer", "weight-decimal"],
    )
    def test_overflowing_weight_rejected(self, tail):
        """Regression: float() read the literal as inf, and formatting the
        query's canonical key raised a bare OverflowError."""
        text = "FIND OUTLIERS FROM author JUDGED BY author.paper.venue" + tail
        with pytest.raises(QuerySyntaxError, match="out of range") as error:
            parse_query(text)
        assert error.value.position == text.index(": ") + 2

    def test_overflowing_threshold_rejected(self):
        text = (
            "FIND OUTLIERS FROM author AS a WHERE COUNT(a.paper) > "
            + "9" * 400
            + " OR a.h >= 1 JUDGED BY author.paper.venue;"
        )
        with pytest.raises(QuerySyntaxError, match="out of range"):
            parse_query(text)
        with pytest.raises(QuerySyntaxError, match="out of range"):
            parse_query(text.replace("COUNT(a.paper) > ", "a.h < "))

    def test_top_beyond_the_digit_limit_rejected(self):
        """Regression: int() raised a bare ValueError past 4,300 digits."""
        text = "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP "
        with pytest.raises(QuerySyntaxError, match="too long") as error:
            parse_query(text + "9" * 5000 + ";")
        assert error.value.position == len(text)

    def test_compared_without_to_rejected(self):
        with pytest.raises(QuerySyntaxError, match="TO"):
            parse_query(
                'FIND OUTLIERS FROM author{"x"}.paper.author COMPARED '
                'venue{"KDD"}.paper.author JUDGED BY author.paper.venue;'
            )


class TestSetExpressions:
    def test_single_vertex_reference(self):
        expression = parse_set_expression('venue{"EDBT"}')
        assert expression == Chain(types=("venue",), anchor="EDBT")

    def test_bare_type_selects_all(self):
        assert parse_set_expression("author") == Chain(types=("author",))

    def test_unanchored_chain(self):
        assert parse_set_expression("venue.paper.author") == Chain(
            types=("venue", "paper", "author")
        )

    def test_union_paper_example(self):
        expression = parse_set_expression(
            'venue{"EDBT"}.paper.author UNION venue{"ICDE"}.paper.author'
        )
        assert isinstance(expression, SetOperation)
        assert expression.operator == "UNION"

    def test_intersect_paper_example(self):
        expression = parse_set_expression(
            'venue{"EDBT"}.paper.author INTERSECT venue{"ICDE"}.paper.author'
        )
        assert expression.operator == "INTERSECT"

    def test_except_supported(self):
        expression = parse_set_expression(
            'venue{"EDBT"}.paper.author EXCEPT venue{"ICDE"}.paper.author'
        )
        assert expression.operator == "EXCEPT"

    def test_set_operators_left_associative(self):
        expression = parse_set_expression("author UNION author INTERSECT author")
        assert expression.operator == "INTERSECT"
        assert expression.left.operator == "UNION"

    def test_parenthesized_grouping(self):
        expression = parse_set_expression("author UNION (author INTERSECT author)")
        assert expression.operator == "UNION"
        assert expression.right.operator == "INTERSECT"

    def test_parenthesized_with_alias_and_where(self):
        expression = parse_set_expression(
            '(venue{"A"}.paper.author UNION venue{"B"}.paper.author) AS A '
            "WHERE COUNT(A.paper) > 3"
        )
        assert isinstance(expression, FilteredSet)
        assert expression.alias == "A"
        assert isinstance(expression.where, Comparison)

    def test_redundant_parens_collapse(self):
        expression = parse_set_expression('(venue{"A"}.paper.author)')
        assert isinstance(expression, Chain)

    def test_unclosed_brace_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_set_expression('venue{"A".paper')

    def test_anchor_must_be_string(self):
        with pytest.raises(QuerySyntaxError, match="quoted"):
            parse_set_expression("venue{EDBT}")


class TestWhereConditions:
    def _candidates(self, where_text):
        expression = parse_set_expression(
            f'venue{{"V"}}.paper.author AS A WHERE {where_text}'
        )
        return expression.where

    def test_count_comparison(self):
        where = self._candidates("COUNT(A.paper) > 10")
        assert where == Comparison(
            function="COUNT", alias="A", steps=("paper",), operator=">", value=10.0
        )

    def test_paths_aggregate(self):
        where = self._candidates("PATHS(A.paper.venue) >= 2")
        assert where.function == "PATHS"
        assert where.steps == ("paper", "venue")

    def test_all_comparison_operators(self):
        for op in (">", ">=", "<", "<=", "=", "!="):
            where = self._candidates(f"COUNT(A.paper) {op} 1")
            assert where.operator == op

    def test_synonym_operators_normalized(self):
        assert self._candidates("COUNT(A.paper) == 1").operator == "="
        assert self._candidates("COUNT(A.paper) <> 1").operator == "!="

    def test_and_or_precedence(self):
        where = self._candidates(
            "COUNT(A.paper) > 1 OR COUNT(A.paper) < 5 AND COUNT(A.paper) != 3"
        )
        # AND binds tighter than OR.
        assert isinstance(where, BooleanCondition)
        assert where.operator == "OR"
        assert where.right.operator == "AND"

    def test_not_condition(self):
        where = self._candidates("NOT COUNT(A.paper) > 1")
        assert isinstance(where, NotCondition)

    def test_parenthesized_condition(self):
        where = self._candidates(
            "(COUNT(A.paper) > 1 OR COUNT(A.paper) < 5) AND COUNT(A.paper) != 3"
        )
        assert where.operator == "AND"
        assert where.left.operator == "OR"

    def test_count_without_steps_rejected(self):
        with pytest.raises(QuerySyntaxError, match="at least one"):
            self._candidates("COUNT(A) > 1")

    def test_missing_comparison_rejected(self):
        with pytest.raises(QuerySyntaxError):
            self._candidates("COUNT(A.paper)")


class TestFeatureClauses:
    def _features(self, text):
        return parse_query(
            f'FIND OUTLIERS FROM author{{"x"}}.paper.author JUDGED BY {text};'
        ).features

    def test_multiple_features(self):
        features = self._features("author.paper.venue, author.paper.author")
        assert len(features) == 2

    def test_weight_syntax(self):
        features = self._features("author.paper.venue: 2.0, author.paper.author")
        assert features[0].weight == 2.0
        assert features[1].weight == 1.0

    def test_single_type_feature_rejected(self):
        with pytest.raises(QuerySyntaxError, match="two vertex types"):
            self._features("author")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(QuerySyntaxError, match="positive"):
            self._features("author.paper.venue: 0")


class TestAstInvariants:
    def test_query_requires_features(self):
        with pytest.raises(ValueError):
            Query(candidates=Chain(types=("a",)), features=())

    def test_query_requires_positive_top_k(self):
        with pytest.raises(ValueError):
            Query(
                candidates=Chain(types=("a",)),
                features=(FeaturePath(("a", "p")),),
                top_k=-1,
            )

    def test_chain_requires_types(self):
        with pytest.raises(ValueError):
            Chain(types=())

    def test_comparison_requires_steps(self):
        with pytest.raises(ValueError):
            Comparison(function="COUNT", alias="A", steps=(), operator=">", value=1)
