"""Render query ASTs back to canonical query text.

The canonical form uses upper-case keywords, one clause per line, and quotes
anchor names with escaping, so ``parse_query(format_query(q)) == q`` for all
well-formed queries — a property the test suite checks with hypothesis.
"""

from __future__ import annotations

from decimal import Decimal

from repro.query.ast import (
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

__all__ = ["format_query", "format_set_expression", "format_condition"]


def _quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _format_number(value: float) -> str:
    """``value`` in positional notation — the only one the tokenizer reads —
    with the shortest digits that re-parse to the same float."""
    if value == int(value):
        return str(int(value))
    text = repr(value)
    # Only magnitudes below 1e-4 repr in exponent form here: every float
    # from 2**53 up is integral.
    return format(Decimal(text), "f") if "e" in text else text


def format_condition(condition: Condition) -> str:
    """Render a WHERE condition; parenthesizes OR under AND to keep precedence."""
    if isinstance(condition, Comparison):
        walk = ".".join((condition.alias,) + condition.steps)
        return (
            f"{condition.function}({walk}) {condition.operator} "
            f"{_format_number(condition.value)}"
        )
    if isinstance(condition, AttributeComparison):
        if isinstance(condition.value, str):
            literal = _quote(condition.value)
        else:
            literal = _format_number(condition.value)
        return (
            f"{condition.alias}.{condition.attribute} {condition.operator} "
            f"{literal}"
        )
    if isinstance(condition, BooleanCondition):
        left = format_condition(condition.left)
        right = format_condition(condition.right)
        if condition.operator == "AND":
            if isinstance(condition.left, BooleanCondition) and condition.left.operator == "OR":
                left = f"({left})"
            if isinstance(condition.right, BooleanCondition):
                right = f"({right})"
        elif isinstance(condition.right, BooleanCondition):
            # Preserve left-associativity of the parse on re-parse.
            right = f"({right})"
        return f"{left} {condition.operator} {right}"
    if isinstance(condition, NotCondition):
        inner = format_condition(condition.operand)
        if isinstance(condition.operand, BooleanCondition):
            inner = f"({inner})"
        return f"NOT {inner}"
    raise TypeError(f"unknown condition node {condition!r}")


def _format_alias_where(alias: str | None, where: Condition | None) -> str:
    text = ""
    if alias is not None:
        text += f" AS {alias}"
    if where is not None:
        text += f" WHERE {format_condition(where)}"
    return text


def format_set_expression(expression: SetExpression) -> str:
    """Render a set expression in canonical form."""
    if isinstance(expression, Chain):
        head = expression.types[0]
        if expression.anchor is not None:
            head += "{" + _quote(expression.anchor) + "}"
        text = ".".join([head, *expression.types[1:]])
        return text + _format_alias_where(expression.alias, expression.where)
    if isinstance(expression, SetOperation):
        left = format_set_expression(expression.left)
        right = format_set_expression(expression.right)
        # A set-operation right operand re-parses as a term, so it must be
        # parenthesized to preserve left-associativity; a chain whose alias
        # or where would be captured by the operator also needs parens.
        if isinstance(expression.right, SetOperation):
            right = f"({right})"
        return f"{left} {expression.operator} {right}"
    if isinstance(expression, FilteredSet):
        base = format_set_expression(expression.base)
        return f"({base})" + _format_alias_where(expression.alias, expression.where)
    raise TypeError(f"unknown set expression node {expression!r}")


def _format_feature(feature: FeaturePath) -> str:
    text = ".".join(feature.types)
    if feature.weight != 1.0:
        text += f": {_format_number(feature.weight)}"
    return text


def format_query(query: Query) -> str:
    """Render a full query in canonical multi-line form ending with ``;``."""
    lines = [f"FIND OUTLIERS FROM {format_set_expression(query.candidates)}"]
    if query.reference is not None:
        lines.append(f"COMPARED TO {format_set_expression(query.reference)}")
    features = ", ".join(_format_feature(f) for f in query.features)
    lines.append(f"JUDGED BY {features}")
    lines.append(f"TOP {query.top_k};")
    return "\n".join(lines)
