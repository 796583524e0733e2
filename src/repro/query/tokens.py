"""Tokenizer for the outlier query language.

Keywords are case-insensitive (``find outliers`` parses the same as
``FIND OUTLIERS``); identifiers are case-sensitive.  String literals use
double quotes with backslash escapes, so vertex names containing quotes or
dots are expressible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.exceptions import QuerySyntaxError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS"]


class TokenType(enum.Enum):
    """Lexical category of a token (keyword, identifier, literal, symbol)."""

    KEYWORD = "keyword"
    IDENT = "ident"
    STRING = "string"
    NUMBER = "number"
    DOT = "dot"
    COMMA = "comma"
    COLON = "colon"
    SEMICOLON = "semicolon"
    LPAREN = "lparen"
    RPAREN = "rparen"
    LBRACE = "lbrace"
    RBRACE = "rbrace"
    COMPARE = "compare"
    END = "end"


KEYWORDS = frozenset(
    {
        "FIND",
        "OUTLIERS",
        "FROM",
        "IN",
        "COMPARED",
        "TO",
        "JUDGED",
        "BY",
        "TOP",
        "AS",
        "WHERE",
        "COUNT",
        "PATHS",
        "AND",
        "OR",
        "NOT",
        "UNION",
        "INTERSECT",
        "EXCEPT",
    }
)

_COMPARE_OPERATORS = (">=", "<=", "!=", "<>", "==", ">", "<", "=")

_SINGLE_CHAR_TOKENS = {
    ".": TokenType.DOT,
    ",": TokenType.COMMA,
    ":": TokenType.COLON,
    ";": TokenType.SEMICOLON,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
}

#: Only ASCII digits make a NUMBER: ``str.isdigit`` also admits characters
#: such as "²" or "٣" that ``int`` / ``float`` refuse or read as other values.
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class Token:
    """One lexical token: its type, surface value, and source position."""

    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.type is TokenType.END:
            return "<end of query>"
        return repr(self.value)


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a double-quoted string starting at ``text[start]``.

    Returns the decoded value and the index one past the closing quote.
    """
    assert text[start] == '"'
    chars: list[str] = []
    position = start + 1
    while position < len(text):
        char = text[position]
        if char == "\\":
            if position + 1 >= len(text):
                raise QuerySyntaxError(
                    "unterminated escape sequence in string literal",
                    position=position,
                )
            chars.append(text[position + 1])
            position += 2
            continue
        if char == '"':
            return "".join(chars), position + 1
        chars.append(char)
        position += 1
    raise QuerySyntaxError("unterminated string literal", position=start)


def _read_number(text: str, start: int) -> tuple[str, int]:
    """Read an (unsigned) integer or decimal literal starting at ``start``."""
    position = start
    while position < len(text) and text[position] in _DIGITS:
        position += 1
    if position < len(text) and text[position] == ".":
        # Only consume the dot when a digit follows — otherwise it is the
        # meta-path dot operator (e.g. in "TOP 10.paper" the dot is not ours,
        # though such input will fail to parse later anyway).
        if position + 1 < len(text) and text[position + 1] in _DIGITS:
            position += 1
            while position < len(text) and text[position] in _DIGITS:
                position += 1
    return text[start:position], position


def tokenize(text: str) -> list[Token]:
    """Tokenize query text into a list ending with an END token.

    Raises
    ------
    QuerySyntaxError
        On any character that cannot start a token or on malformed string
        literals.
    """
    tokens: list[Token] = []
    position = 0
    length = len(text)
    while position < length:
        char = text[position]
        if char.isspace():
            position += 1
            continue
        if char == "-" and text.startswith("--", position):
            # SQL-style line comment.
            newline = text.find("\n", position)
            position = length if newline == -1 else newline + 1
            continue
        if char == '"':
            value, end = _read_string(text, position)
            tokens.append(Token(TokenType.STRING, value, position))
            position = end
            continue
        if char in _DIGITS:
            value, new_position = _read_number(text, position)
            tokens.append(Token(TokenType.NUMBER, value, position))
            position = new_position
            continue
        if char.isalpha() or char == "_":
            start = position
            while position < length and (text[position].isalnum() or text[position] == "_"):
                position += 1
            word = text[start:position]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENT, word, start))
            continue
        matched_operator = next(
            (op for op in _COMPARE_OPERATORS if text.startswith(op, position)),
            None,
        )
        if matched_operator is not None:
            tokens.append(Token(TokenType.COMPARE, matched_operator, position))
            position += len(matched_operator)
            continue
        token_type = _SINGLE_CHAR_TOKENS.get(char)
        if token_type is not None:
            tokens.append(Token(token_type, char, position))
            position += 1
            continue
        raise QuerySyntaxError(
            f"unexpected character {char!r} in query", position=position
        )
    tokens.append(Token(TokenType.END, "", length))
    return tokens
