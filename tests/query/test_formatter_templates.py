"""Tests for :mod:`repro.query.formatter` and :mod:`repro.query.templates`."""

import pytest

from repro.query.formatter import format_condition, format_query, format_set_expression
from repro.query.parser import parse_query, parse_set_expression
from repro.query.templates import (
    QUERY_TEMPLATES,
    TEMPLATE_Q1,
    TEMPLATE_Q2,
    TEMPLATE_Q3,
)


def round_trip_query(text):
    first = parse_query(text)
    rendered = format_query(first)
    second = parse_query(rendered)
    assert second == first, f"round-trip changed the AST:\n{rendered}"
    return rendered


def round_trip_set(text):
    first = parse_set_expression(text)
    rendered = format_set_expression(first)
    second = parse_set_expression(rendered)
    assert second == first, f"round-trip changed the AST:\n{rendered}"
    return rendered


class TestQueryRoundTrips:
    def test_example1(self):
        round_trip_query(
            'FIND OUTLIERS FROM author{"Christos Faloutsos"}.paper.author '
            "JUDGED BY author.paper.venue TOP 10;"
        )

    def test_example2(self):
        round_trip_query(
            'FIND OUTLIERS FROM author{"C"}.paper.author '
            'COMPARED TO venue{"KDD"}.paper.author '
            "JUDGED BY author.paper.venue, author.paper.author TOP 10;"
        )

    def test_example3_with_where_and_weights(self):
        round_trip_query(
            'FIND OUTLIERS FROM venue{"SIGMOD"}.paper.author AS A '
            "WHERE COUNT(A.paper) >= 5 "
            "JUDGED BY author.paper.author, author.paper.term: 3.0 TOP 50;"
        )

    def test_anchor_with_quotes_escaped(self):
        rendered = round_trip_query(
            'FIND OUTLIERS FROM author{"A \\"quoted\\" name"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        assert '\\"quoted\\"' in rendered

    def test_in_keyword_normalized_to_from(self):
        rendered = round_trip_query(
            'FIND OUTLIERS IN author{"x"}.paper.venue '
            "JUDGED BY venue.paper.term TOP 10;"
        )
        assert "FROM" in rendered

    def test_default_top_k_rendered_explicitly(self):
        rendered = round_trip_query(
            'FIND OUTLIERS FROM author{"x"}.paper.author JUDGED BY author.paper.venue;'
        )
        assert "TOP 10;" in rendered


class TestSetExpressionRoundTrips:
    @pytest.mark.parametrize(
        "text",
        [
            'venue{"EDBT"}',
            "author",
            'venue{"EDBT"}.paper.author',
            'venue{"A"}.paper.author UNION venue{"B"}.paper.author',
            'venue{"A"}.paper.author INTERSECT venue{"B"}.paper.author EXCEPT author',
            'author UNION (author INTERSECT author)',
            '(venue{"A"}.paper.author) AS A WHERE COUNT(A.paper) > 3',
            'venue{"A"}.paper.author AS X WHERE COUNT(X.paper) > 1 AND '
            "PATHS(X.paper.venue) <= 7",
            'author WHERE NOT (COUNT(author.paper) > 1 OR COUNT(author.paper) < 5)',
        ],
    )
    def test_round_trip(self, text):
        round_trip_set(text)

    def test_or_under_and_parenthesized(self):
        rendered = round_trip_set(
            'author WHERE (COUNT(author.paper) > 1 OR COUNT(author.paper) < 5) '
            "AND COUNT(author.paper) != 3"
        )
        assert "(" in rendered


class TestConditionFormatting:
    def test_integer_values_render_without_decimal(self):
        condition = parse_set_expression(
            'author AS A WHERE COUNT(A.paper) > 10'
        ).where
        assert format_condition(condition) == "COUNT(A.paper) > 10"

    def test_float_values_preserved(self):
        condition = parse_set_expression(
            'author AS A WHERE PATHS(A.paper) >= 2.5'
        ).where
        assert format_condition(condition) == "PATHS(A.paper) >= 2.5"

    @pytest.mark.parametrize(
        "literal", ["0.00000015", "0.00001", "0.000099", "0." + "0" * 300 + "5"]
    )
    @pytest.mark.parametrize(
        "template",
        [
            "FIND OUTLIERS FROM author JUDGED BY author.paper.venue: {} TOP 3;",
            "FIND OUTLIERS FROM author AS a WHERE COUNT(a.paper) > {} "
            "JUDGED BY author.paper.venue;",
            "FIND OUTLIERS FROM author AS a WHERE PATHS(a.paper.venue) <= {} "
            "JUDGED BY author.paper.venue;",
            "FIND OUTLIERS FROM author AS a WHERE a.h_index >= {} "
            "JUDGED BY author.paper.venue;",
        ],
        ids=["weight", "count", "paths", "attribute"],
    )
    def test_values_below_1e_4_render_positionally(self, template, literal):
        """Regression: ``repr`` wrote ``1.5e-07``, which the tokenizer
        cannot read, so a valid query's canonical text was refused."""
        rendered = round_trip_query(template.format(literal))
        assert "e-" not in rendered
        assert format_query(parse_query(rendered)) == rendered


class TestTemplates:
    def test_three_templates_in_paper_order(self):
        assert [t.name for t in QUERY_TEMPLATES] == ["Q1", "Q2", "Q3"]

    def test_q1_shape(self):
        query = TEMPLATE_Q1.parse("Jane Roe")
        assert query.candidates.anchor == "Jane Roe"
        assert query.candidates.types == ("author", "paper", "author")
        assert query.features[0].types == ("author", "paper", "venue")
        assert query.top_k == 10

    def test_q2_shape(self):
        query = TEMPLATE_Q2.parse("Jane Roe")
        assert query.candidates.types == ("author", "paper", "venue")
        assert query.features[0].types == ("venue", "paper", "term")

    def test_q3_shape(self):
        query = TEMPLATE_Q3.parse("Jane Roe")
        assert query.candidates.types == ("author", "paper", "term")
        assert query.features[0].types == ("term", "paper", "venue")

    def test_render_escapes_quotes(self):
        text = TEMPLATE_Q1.render('O"Brien')
        query = parse_query(text)
        assert query.candidates.anchor == 'O"Brien'

    def test_render_escapes_backslashes(self):
        text = TEMPLATE_Q1.render("back\\slash")
        query = parse_query(text)
        assert query.candidates.anchor == "back\\slash"
