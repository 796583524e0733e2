"""Tests for :mod:`repro.query.tokens`."""

import pytest

from repro.exceptions import QuerySyntaxError
from repro.query.tokens import Token, TokenType, tokenize


def kinds(text):
    return [t.type for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestKeywordsAndIdentifiers:
    def test_keywords_case_insensitive(self):
        for text in ("FIND", "find", "Find", "fInD"):
            token = tokenize(text)[0]
            assert token.type is TokenType.KEYWORD
            assert token.value == "FIND"

    def test_identifiers_case_sensitive(self):
        token = tokenize("Author")[0]
        assert token.type is TokenType.IDENT
        assert token.value == "Author"

    def test_identifier_with_underscore_and_digits(self):
        token = tokenize("vertex_type_2")[0]
        assert token.type is TokenType.IDENT
        assert token.value == "vertex_type_2"

    def test_all_clause_keywords(self):
        text = "FIND OUTLIERS FROM COMPARED TO JUDGED BY TOP AS WHERE"
        assert all(t is TokenType.KEYWORD for t in kinds(text)[:-1])


class TestStrings:
    def test_simple_string(self):
        token = tokenize('"Christos Faloutsos"')[0]
        assert token.type is TokenType.STRING
        assert token.value == "Christos Faloutsos"

    def test_escaped_quote(self):
        token = tokenize(r'"say \"hi\""')[0]
        assert token.value == 'say "hi"'

    def test_escaped_backslash(self):
        token = tokenize(r'"a\\b"')[0]
        assert token.value == "a\\b"

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError, match="unterminated"):
            tokenize('"open')

    def test_unterminated_escape(self):
        with pytest.raises(QuerySyntaxError, match="escape"):
            tokenize('"trailing\\')

    def test_string_may_contain_dots_and_braces(self):
        token = tokenize('"a.b{c}"')[0]
        assert token.value == "a.b{c}"

    def test_string_position_is_its_opening_quote(self):
        assert tokenize('"ab"')[0].position == 0
        text = 'author{"Zoe"}'
        assert tokenize(text)[2].position == text.index('"')


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == "42"

    def test_decimal(self):
        token = tokenize("2.5")[0]
        assert token.value == "2.5"

    def test_integer_followed_by_dot_operator(self):
        # "10.paper" must lex as NUMBER(10), DOT, IDENT(paper).
        tokens = tokenize("10.paper")
        assert [t.type for t in tokens[:-1]] == [
            TokenType.NUMBER,
            TokenType.DOT,
            TokenType.IDENT,
        ]


class TestOperatorsAndPunctuation:
    def test_two_char_operators_win(self):
        assert values(">= <= != <> ==") == [">=", "<=", "!=", "<>", "=="]

    def test_single_char_operators(self):
        assert values("> < =") == [">", "<", "="]

    def test_punctuation(self):
        assert kinds(".,:;(){}")[:-1] == [
            TokenType.DOT,
            TokenType.COMMA,
            TokenType.COLON,
            TokenType.SEMICOLON,
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.LBRACE,
            TokenType.RBRACE,
        ]

    def test_unexpected_character(self):
        with pytest.raises(QuerySyntaxError, match="unexpected character"):
            tokenize("author @ paper")


class TestStructure:
    def test_end_token_always_present(self):
        assert tokenize("")[-1].type is TokenType.END
        assert tokenize("FIND")[-1].type is TokenType.END

    def test_whitespace_and_newlines_skipped(self):
        assert kinds("  FIND\n\tOUTLIERS ")[:-1] == [TokenType.KEYWORD] * 2

    def test_sql_style_comment_skipped(self):
        tokens = tokenize("FIND -- a comment\nOUTLIERS")
        assert [t.value for t in tokens[:-1]] == ["FIND", "OUTLIERS"]

    def test_full_query_token_stream(self):
        text = 'FIND OUTLIERS FROM author{"X"}.paper.author JUDGED BY author.paper.venue TOP 10;'
        tokens = tokenize(text)
        assert tokens[-1].type is TokenType.END
        # FIND, OUTLIERS, FROM, JUDGED, BY, TOP.
        assert sum(t.type is TokenType.KEYWORD for t in tokens) == 6

    def test_positions_recorded(self):
        tokens = tokenize("FIND OUTLIERS")
        assert tokens[0].position == 0
        assert tokens[1].position == 5

    def test_is_keyword_helper(self):
        token = tokenize("FROM")[0]
        assert token.is_keyword("FROM")
        assert not token.is_keyword("TO")
        assert not Token(TokenType.IDENT, "FROM", 0).is_keyword("FROM")
