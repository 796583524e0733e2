"""Property-based tests for the query language: format ∘ parse round-trips."""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QuerySyntaxError

from repro.query.ast import (
    AttributeComparison,
    BooleanCondition,
    Chain,
    Comparison,
    FeaturePath,
    FilteredSet,
    NotCondition,
    Query,
    SetOperation,
)
from repro.query.formatter import format_query, format_set_expression
from repro.query.parser import parse_query, parse_set_expression
from repro.metapath.metapath import MetaPath

# ----------------------------------------------------------------------
# AST generators
# ----------------------------------------------------------------------
type_names = st.sampled_from(["author", "paper", "venue", "term"])
identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    # Identifiers must not collide with (case-insensitive) keywords.
    lambda s: s.upper()
    not in {
        "FIND", "OUTLIERS", "FROM", "IN", "COMPARED", "TO", "JUDGED", "BY",
        "TOP", "AS", "WHERE", "COUNT", "PATHS", "AND", "OR", "NOT", "UNION",
        "INTERSECT", "EXCEPT",
    }
)
anchor_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    min_size=1,
    max_size=12,
)
weights = st.sampled_from([1.0, 2.0, 3.0, 0.5, 2.5])
values = st.sampled_from([0.0, 1.0, 2.0, 5.0, 10.0, 2.5])
operators = st.sampled_from([">", ">=", "<", "<=", "=", "!="])


def comparisons(alias):
    return st.builds(
        Comparison,
        function=st.sampled_from(["COUNT", "PATHS"]),
        alias=st.just(alias),
        steps=st.lists(type_names, min_size=1, max_size=3).map(tuple),
        operator=operators,
        value=values,
    )


def attribute_comparisons(alias):
    numeric = st.builds(
        AttributeComparison,
        alias=st.just(alias),
        attribute=identifiers,
        operator=operators,
        value=values,
    )
    string = st.builds(
        AttributeComparison,
        alias=st.just(alias),
        attribute=identifiers,
        operator=st.sampled_from(["=", "!="]),
        value=anchor_names,
    )
    return st.one_of(numeric, string)


def conditions(alias):
    return st.recursive(
        st.one_of(comparisons(alias), attribute_comparisons(alias)),
        lambda children: st.one_of(
            st.builds(
                BooleanCondition,
                operator=st.sampled_from(["AND", "OR"]),
                left=children,
                right=children,
            ),
            st.builds(NotCondition, operand=children),
        ),
        max_leaves=4,
    )


@st.composite
def chains(draw):
    types = tuple(draw(st.lists(type_names, min_size=1, max_size=4)))
    anchor = draw(st.one_of(st.none(), anchor_names))
    alias = draw(st.one_of(st.none(), identifiers))
    condition_alias = alias if alias is not None else types[-1]
    where = draw(st.one_of(st.none(), conditions(condition_alias)))
    return Chain(types=types, anchor=anchor, alias=alias, where=where)


set_expressions = st.recursive(
    chains(),
    lambda children: st.one_of(
        st.builds(
            SetOperation,
            operator=st.sampled_from(["UNION", "INTERSECT", "EXCEPT"]),
            left=children,
            right=children,
        ),
        st.builds(
            FilteredSet,
            base=children,
            alias=st.one_of(st.none(), identifiers),
            where=st.one_of(st.none(), conditions("author")),
        ).filter(lambda f: f.alias is not None or f.where is not None),
    ),
    max_leaves=5,
)

feature_paths = st.builds(
    FeaturePath,
    types=st.lists(type_names, min_size=2, max_size=4).map(tuple),
    weight=weights,
)

queries = st.builds(
    Query,
    candidates=set_expressions,
    reference=st.one_of(st.none(), set_expressions),
    features=st.lists(feature_paths, min_size=1, max_size=3).map(tuple),
    top_k=st.integers(min_value=1, max_value=100),
)


class TestRoundTrips:
    @given(set_expressions)
    @settings(max_examples=200)
    def test_set_expression_round_trip(self, expression):
        rendered = format_set_expression(expression)
        assert parse_set_expression(rendered) == expression

    @given(queries)
    @settings(max_examples=200)
    def test_query_round_trip(self, query):
        rendered = format_query(query)
        assert parse_query(rendered) == query

    @given(queries)
    @settings(max_examples=50)
    def test_formatting_idempotent(self, query):
        once = format_query(query)
        twice = format_query(parse_query(once))
        assert once == twice


# ----------------------------------------------------------------------
# Numeric literals as text
# ----------------------------------------------------------------------
#: Unsigned literals the tokenizer reads, from the plain to the absurd:
#: tiny fractions (down past float underflow), integers past both float
#: overflow and the interpreter's 4,300-digit limit, and the exact decimal
#: expansion of any finite float (what an exponent-form ``repr`` stands for).
numeric_literals = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.tuples(st.integers(0, 400), st.integers(1, 10**9)).map(
        lambda t: "0." + "0" * t[0] + str(t[1])
    ),
    st.tuples(st.integers(1, 9), st.integers(0, 5000), st.booleans()).map(
        lambda t: str(t[0]) + "9" * t[1] + (".5" if t[2] else "")
    ),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(
        lambda value: format(Decimal(value), "f")
    ),
)

LITERAL_SLOTS = [
    "FIND OUTLIERS FROM author JUDGED BY author.paper.venue: {} TOP 3;",
    "FIND OUTLIERS FROM author AS a WHERE COUNT(a.paper) > {} "
    "JUDGED BY author.paper.venue;",
    "FIND OUTLIERS FROM author AS a WHERE PATHS(a.paper.venue) <= {} "
    "JUDGED BY author.paper.venue;",
    "FIND OUTLIERS FROM author AS a WHERE a.h_index != {} "
    "JUDGED BY author.paper.venue;",
    "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP {};",
]


class TestNumericLiterals:
    @pytest.mark.parametrize(
        "template", LITERAL_SLOTS, ids=["weight", "count", "paths", "attribute", "top"]
    )
    @given(literal=numeric_literals)
    @settings(max_examples=100)
    def test_only_syntax_errors_and_a_canonical_fixed_point(self, template, literal):
        try:
            query = parse_query(template.format(literal))
        except QuerySyntaxError:
            return
        rendered = format_query(query)
        assert parse_query(rendered) == query
        assert format_query(parse_query(rendered)) == rendered


class TestMetaPathAlgebraProperties:
    @given(st.lists(type_names, min_size=1, max_size=6))
    def test_reverse_involution(self, types):
        path = MetaPath(tuple(types))
        assert path.reversed().reversed() == path

    @given(st.lists(type_names, min_size=1, max_size=6))
    def test_symmetric_is_palindrome(self, types):
        assert MetaPath(tuple(types)).symmetric().is_symmetric

    @given(st.lists(type_names, min_size=1, max_size=5))
    def test_symmetric_length(self, types):
        path = MetaPath(tuple(types))
        assert path.symmetric().length == 2 * path.length

    @given(
        st.lists(type_names, min_size=1, max_size=4),
        st.lists(type_names, min_size=1, max_size=4),
    )
    def test_concat_reversal_antihomomorphism(self, left_types, right_types):
        """(P1·P2)⁻¹ == P2⁻¹·P1⁻¹ whenever the concat is legal."""
        left = MetaPath(tuple(left_types))
        right = MetaPath(tuple(right_types))
        if left.target != right.source:
            return
        joined = left.concat(right)
        assert joined.reversed() == right.reversed().concat(left.reversed())

    @given(st.lists(type_names, min_size=1, max_size=8))
    def test_decompose_recompose(self, types):
        from repro.metapath.materialize import decompose_length2

        path = MetaPath(tuple(types))
        segments, tail = decompose_length2(path)
        assert all(segment.length == 2 for segment in segments)
        if tail is not None:
            assert tail.length == 1
        pieces = segments + ([tail] if tail is not None else [])
        if not pieces:
            assert path.length == 0
            return
        recomposed = pieces[0]
        for piece in pieces[1:]:
            recomposed = recomposed.concat(piece)
        assert recomposed == path
