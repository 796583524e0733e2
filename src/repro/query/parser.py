"""Recursive-descent parser for the outlier query language.

Grammar (keywords case-insensitive)::

    query      := FIND OUTLIERS (FROM | IN) set_expr
                  [COMPARED TO set_expr]
                  JUDGED BY feature (',' feature)*
                  [TOP NUMBER] [';']
    set_expr   := set_term ((UNION | INTERSECT | EXCEPT) set_term)*
    set_term   := '(' set_expr ')' [AS IDENT] [WHERE condition]
                | chain [AS IDENT] [WHERE condition]
    chain      := IDENT ['{' STRING '}'] ('.' IDENT)*
    condition  := and_cond (OR and_cond)*
    and_cond   := atom (AND atom)*
    atom       := (COUNT | PATHS) '(' IDENT ('.' IDENT)+ ')' COMPARE NUMBER
                | IDENT '.' IDENT COMPARE (NUMBER | STRING)
                | NOT atom
                | '(' condition ')'
    feature    := IDENT ('.' IDENT)+ [':' NUMBER]

Set operators are left-associative and equal precedence (apply in textual
order), matching the SQL-ish reading of the paper's examples.
"""

from __future__ import annotations

import math

from repro.exceptions import QuerySyntaxError
from repro.query.ast import (
    DEFAULT_TOP_K,
    AttributeComparison,
    BooleanCondition,
    Chain,
    Comparison,
    Condition,
    FeaturePath,
    FilteredSet,
    NotCondition,
    Query,
    SetExpression,
    SetOperation,
)
from repro.query.tokens import Token, TokenType, tokenize

__all__ = ["parse_query", "parse_set_expression"]

_SET_OPERATORS = ("UNION", "INTERSECT", "EXCEPT")
_NORMALIZED_COMPARE = {"==": "=", "<>": "!="}


#: Maximum parenthesis-nesting depth; beyond this the input is hostile and
#: the parser fails cleanly instead of exhausting the Python stack.
MAX_NESTING_DEPTH = 64


class _Parser:
    """Token-stream cursor with the usual expect/accept helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._position = 0
        self._depth = 0

    def _enter_nesting(self) -> None:
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            raise QuerySyntaxError(
                f"parenthesis nesting exceeds {MAX_NESTING_DEPTH} levels",
                position=self.current.position,
            )

    def _exit_nesting(self) -> None:
        self._depth -= 1

    # -- cursor helpers -------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.END:
            self._position += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise QuerySyntaxError(
                f"expected keyword {word}, found {self.current}",
                position=self.current.position,
            )

    def expect(self, token_type: TokenType, description: str) -> Token:
        if self.current.type is not token_type:
            raise QuerySyntaxError(
                f"expected {description}, found {self.current}",
                position=self.current.position,
            )
        return self.advance()

    def expect_number(self, description: str) -> float:
        """The next token as a numeric literal, which must be finite: a
        value ``float`` reads as infinity has no canonical text."""
        number = self.expect(TokenType.NUMBER, description)
        value = float(number.value)
        if not math.isfinite(value):
            raise QuerySyntaxError(
                f"numeric literal out of range ({len(number.value)} characters)",
                position=number.position,
            )
        return value

    # -- grammar productions --------------------------------------------
    def parse_query(self) -> Query:
        self.expect_keyword("FIND")
        self.expect_keyword("OUTLIERS")
        if not self.accept_keyword("FROM") and not self.accept_keyword("IN"):
            raise QuerySyntaxError(
                f"expected FROM or IN after FIND OUTLIERS, found {self.current}",
                position=self.current.position,
            )
        candidates = self.parse_set_expression()

        reference: SetExpression | None = None
        if self.accept_keyword("COMPARED"):
            self.expect_keyword("TO")
            reference = self.parse_set_expression()

        self.expect_keyword("JUDGED")
        self.expect_keyword("BY")
        features = [self.parse_feature()]
        while self.current.type is TokenType.COMMA:
            self.advance()
            features.append(self.parse_feature())

        top_k = DEFAULT_TOP_K
        if self.accept_keyword("TOP"):
            number = self.expect(TokenType.NUMBER, "an integer after TOP")
            if "." in number.value:
                raise QuerySyntaxError(
                    f"TOP expects an integer, got {number.value!r}",
                    position=number.position,
                )
            try:
                top_k = int(number.value)
            except ValueError:  # beyond the interpreter's integer digit limit
                raise QuerySyntaxError(
                    f"TOP integer too long ({len(number.value)} digits)",
                    position=number.position,
                ) from None
            if top_k <= 0:
                raise QuerySyntaxError(
                    f"TOP expects a positive integer, got {top_k}",
                    position=number.position,
                )

        if self.current.type is TokenType.SEMICOLON:
            self.advance()
        if self.current.type is not TokenType.END:
            raise QuerySyntaxError(
                f"unexpected trailing input: {self.current}",
                position=self.current.position,
            )
        return Query(
            candidates=candidates,
            reference=reference,
            features=tuple(features),
            top_k=top_k,
        )

    def parse_set_expression(self) -> SetExpression:
        expression = self.parse_set_term()
        while self.current.type is TokenType.KEYWORD and self.current.value in _SET_OPERATORS:
            operator = self.advance().value
            right = self.parse_set_term()
            expression = SetOperation(operator=operator, left=expression, right=right)
        return expression

    def parse_set_term(self) -> SetExpression:
        if self.current.type is TokenType.LPAREN:
            self._enter_nesting()
            self.advance()
            inner = self.parse_set_expression()
            self.expect(TokenType.RPAREN, "a closing parenthesis")
            self._exit_nesting()
            alias, where = self.parse_alias_and_where()
            if alias is None and where is None:
                return inner
            return FilteredSet(base=inner, alias=alias, where=where)
        return self.parse_chain()

    def parse_chain(self) -> Chain:
        first = self.expect(TokenType.IDENT, "a vertex type name")
        anchor: str | None = None
        if self.current.type is TokenType.LBRACE:
            self.advance()
            anchor_token = self.expect(TokenType.STRING, "a quoted vertex name")
            anchor = anchor_token.value
            self.expect(TokenType.RBRACE, "a closing brace")
        types = [first.value]
        while self.current.type is TokenType.DOT:
            self.advance()
            step = self.expect(TokenType.IDENT, "a vertex type after '.'")
            types.append(step.value)
        alias, where = self.parse_alias_and_where()
        return Chain(types=tuple(types), anchor=anchor, alias=alias, where=where)

    def parse_alias_and_where(self) -> tuple[str | None, Condition | None]:
        alias: str | None = None
        where: Condition | None = None
        if self.accept_keyword("AS"):
            alias = self.expect(TokenType.IDENT, "an alias name after AS").value
        if self.accept_keyword("WHERE"):
            where = self.parse_condition()
        return alias, where

    def parse_condition(self) -> Condition:
        condition = self.parse_and_condition()
        while self.current.is_keyword("OR"):
            self.advance()
            right = self.parse_and_condition()
            condition = BooleanCondition(operator="OR", left=condition, right=right)
        return condition

    def parse_and_condition(self) -> Condition:
        condition = self.parse_condition_atom()
        while self.current.is_keyword("AND"):
            self.advance()
            right = self.parse_condition_atom()
            condition = BooleanCondition(operator="AND", left=condition, right=right)
        return condition

    def parse_condition_atom(self) -> Condition:
        if self.accept_keyword("NOT"):
            self._enter_nesting()
            operand = self.parse_condition_atom()
            self._exit_nesting()
            return NotCondition(operand=operand)
        if self.current.type is TokenType.LPAREN:
            self._enter_nesting()
            self.advance()
            inner = self.parse_condition()
            self.expect(TokenType.RPAREN, "a closing parenthesis")
            self._exit_nesting()
            return inner
        if self.current.is_keyword("COUNT") or self.current.is_keyword("PATHS"):
            function = self.advance().value
            self.expect(TokenType.LPAREN, "'(' after " + function)
            alias = self.expect(TokenType.IDENT, "an alias name").value
            steps: list[str] = []
            while self.current.type is TokenType.DOT:
                self.advance()
                steps.append(self.expect(TokenType.IDENT, "a vertex type after '.'").value)
            if not steps:
                raise QuerySyntaxError(
                    f"{function}({alias}) needs at least one '.step'",
                    position=self.current.position,
                )
            self.expect(TokenType.RPAREN, "a closing parenthesis")
            operator_token = self.expect(TokenType.COMPARE, "a comparison operator")
            operator = _NORMALIZED_COMPARE.get(operator_token.value, operator_token.value)
            return Comparison(
                function=function,
                alias=alias,
                steps=tuple(steps),
                operator=operator,
                value=self.expect_number("a numeric literal"),
            )
        if self.current.type is TokenType.IDENT:
            alias = self.advance().value
            self.expect(TokenType.DOT, "'.' after the alias")
            attribute = self.expect(TokenType.IDENT, "an attribute name").value
            operator_token = self.expect(TokenType.COMPARE, "a comparison operator")
            operator = _NORMALIZED_COMPARE.get(operator_token.value, operator_token.value)
            if self.current.type is TokenType.STRING:
                value: float | str = self.advance().value
                if operator not in ("=", "!="):
                    raise QuerySyntaxError(
                        f"string attributes only support = and !=, got {operator}",
                        position=operator_token.position,
                    )
            else:
                value = self.expect_number("a numeric or string literal")
            return AttributeComparison(
                alias=alias, attribute=attribute, operator=operator, value=value
            )
        raise QuerySyntaxError(
            f"expected a condition, found {self.current}",
            position=self.current.position,
        )

    def parse_feature(self) -> FeaturePath:
        first = self.expect(TokenType.IDENT, "a vertex type name")
        types = [first.value]
        while self.current.type is TokenType.DOT:
            self.advance()
            types.append(self.expect(TokenType.IDENT, "a vertex type after '.'").value)
        if len(types) < 2:
            raise QuerySyntaxError(
                "a feature meta-path needs at least two vertex types",
                position=first.position,
            )
        weight = 1.0
        if self.current.type is TokenType.COLON:
            self.advance()
            position = self.current.position
            weight = self.expect_number("a numeric weight after ':'")
            if weight <= 0:
                raise QuerySyntaxError(
                    f"feature weight must be positive, got {weight}",
                    position=position,
                )
        return FeaturePath(types=tuple(types), weight=weight)


def parse_query(text: str) -> Query:
    """Parse query text into a :class:`~repro.query.ast.Query`.

    Raises
    ------
    QuerySyntaxError
        On lexical or grammatical errors, with the source position attached.
    """
    return _Parser(tokenize(text)).parse_query()


def parse_set_expression(text: str) -> SetExpression:
    """Parse a standalone set expression (useful for tests and tooling)."""
    parser = _Parser(tokenize(text))
    expression = parser.parse_set_expression()
    if parser.current.type is not TokenType.END:
        raise QuerySyntaxError(
            f"unexpected trailing input: {parser.current}",
            position=parser.current.position,
        )
    return expression
