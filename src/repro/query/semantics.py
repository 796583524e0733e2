"""Semantic validation of parsed queries against a network schema.

Validation enforces the constraints stated with Definition 8:

* every vertex type mentioned exists in the schema, and every consecutive
  pair of types in a chain, WHERE walk, or feature meta-path is a registered
  edge type;
* the candidate and reference sets have the same member type;
* every feature meta-path starts at that member type;
* WHERE comparisons reference the set's declared alias (or its member type
  name when no alias was declared).

Successful validation yields a :class:`ValidatedQuery` carrying the resolved
member type and the feature paths as
:class:`~repro.metapath.metapath.WeightedMetaPath` objects ready for the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import QuerySemanticError, SchemaError
from repro.hin.schema import NetworkSchema
from repro.metapath.metapath import MetaPath, WeightedMetaPath
from repro.query.ast import (
    AttributeComparison,
    BooleanCondition,
    Chain,
    Comparison,
    Condition,
    FilteredSet,
    NotCondition,
    Query,
    SetExpression,
    SetOperation,
)

__all__ = ["ValidatedQuery", "validate_query", "validate_sets", "member_type_of"]


@dataclass(frozen=True)
class ValidatedQuery:
    """A query that passed semantic validation.

    Attributes
    ----------
    query:
        The original AST.
    member_type:
        The vertex type of candidate (and reference) set members.
    features:
        Feature meta-paths with weights, in query order.
    """

    query: Query
    member_type: str
    features: tuple[WeightedMetaPath, ...]


def _validate_type_sequence(schema: NetworkSchema, types: tuple[str, ...], context: str) -> None:
    try:
        schema.validate_type_sequence(types)
    except SchemaError as error:
        raise QuerySemanticError(f"{context}: {error}") from error


def _validate_condition(
    schema: NetworkSchema,
    condition: Condition,
    member_type: str,
    alias: str | None,
) -> None:
    if isinstance(condition, (Comparison, AttributeComparison)):
        valid_names = {member_type}
        if alias is not None:
            valid_names.add(alias)
        if condition.alias not in valid_names:
            expected = " or ".join(sorted(valid_names))
            raise QuerySemanticError(
                f"WHERE references unknown alias {condition.alias!r} "
                f"(expected {expected})"
            )
        if isinstance(condition, Comparison):
            walk = (member_type,) + condition.steps
            _validate_type_sequence(schema, walk, "WHERE walk")
        # Attribute names cannot be validated statically (attributes are
        # per-vertex data); missing attributes fail the predicate at
        # execution time.
    elif isinstance(condition, BooleanCondition):
        _validate_condition(schema, condition.left, member_type, alias)
        _validate_condition(schema, condition.right, member_type, alias)
    elif isinstance(condition, NotCondition):
        _validate_condition(schema, condition.operand, member_type, alias)
    else:  # pragma: no cover - exhaustive over the union
        raise QuerySemanticError(f"unknown condition node {condition!r}")


def member_type_of(schema: NetworkSchema, expression: SetExpression) -> str:
    """Validate ``expression`` against ``schema`` and return its member type.

    Raises
    ------
    QuerySemanticError
        If any type or step is illegal, set operands have mismatched member
        types, or a WHERE clause is invalid.
    """
    if isinstance(expression, Chain):
        _validate_type_sequence(schema, expression.types, f"set chain {'.'.join(expression.types)}")
        member = expression.member_type
        if expression.where is not None:
            _validate_condition(schema, expression.where, member, expression.alias)
        return member
    if isinstance(expression, SetOperation):
        left = member_type_of(schema, expression.left)
        right = member_type_of(schema, expression.right)
        if left != right:
            raise QuerySemanticError(
                f"{expression.operator} operands have different member types: "
                f"{left!r} vs {right!r}"
            )
        return left
    if isinstance(expression, FilteredSet):
        member = member_type_of(schema, expression.base)
        if expression.where is not None:
            _validate_condition(schema, expression.where, member, expression.alias)
        return member
    raise QuerySemanticError(f"unknown set expression node {expression!r}")


def validate_sets(
    schema: NetworkSchema,
    candidates: SetExpression,
    reference: SetExpression | None = None,
) -> str:
    """Validate the candidate and (optional) reference set expressions and
    return their shared member type — the set half of :func:`validate_query`,
    for callers that take sets without a full query."""
    candidate_type = member_type_of(schema, candidates)
    if reference is not None:
        reference_type = member_type_of(schema, reference)
        if reference_type != candidate_type:
            raise QuerySemanticError(
                "candidate and reference sets must share a member type: "
                f"{candidate_type!r} vs {reference_type!r}"
            )
    return candidate_type


def validate_query(schema: NetworkSchema, query: Query) -> ValidatedQuery:
    """Validate ``query`` against ``schema``; see module docstring for rules."""
    # TOP k is re-validated at execution time: the parser rejects bad
    # literals, but ASTs are also built programmatically, where a float,
    # bool, or non-positive k would otherwise surface as garbage slicing
    # deep inside ranking.
    top_k = query.top_k
    if isinstance(top_k, bool) or not isinstance(top_k, int):
        raise QuerySemanticError(
            f"TOP k must be a positive integer, got {top_k!r} "
            f"({type(top_k).__name__})"
        )
    if top_k <= 0:
        raise QuerySemanticError(f"TOP k must be a positive integer, got {top_k}")

    candidate_type = validate_sets(schema, query.candidates, query.reference)

    features: list[WeightedMetaPath] = []
    for feature in query.features:
        if feature.types[0] != candidate_type:
            raise QuerySemanticError(
                f"feature meta-path {'.'.join(feature.types)} must start at the "
                f"candidate member type {candidate_type!r}"
            )
        _validate_type_sequence(
            schema, feature.types, f"feature meta-path {'.'.join(feature.types)}"
        )
        features.append(WeightedMetaPath(MetaPath(feature.types), feature.weight))

    return ValidatedQuery(
        query=query,
        member_type=candidate_type,
        features=tuple(features),
    )
