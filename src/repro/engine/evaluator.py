"""Evaluation of set expressions into concrete vertex sets.

The evaluator turns the FROM / COMPARED TO expressions of a validated query
into sorted vertex-index arrays.  Anchored chains and WHERE walks are
materialized through the active
:class:`~repro.engine.strategies.MaterializationStrategy`, so set retrieval
benefits from PM/SPM indexing exactly as Section 6.2 describes ("multiple
steps in the query processing benefit, including the retrieval of candidate
set Sc and reference set Sr").
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np
from scipy import sparse

from repro.engine.deadline import check_deadline
from repro.engine.stats import ExecutionStats
from repro.engine.strategies import MaterializationStrategy
from repro.exceptions import ExecutionError
from repro.hin.network import VertexId
from repro.metapath.metapath import MetaPath
from repro.query.ast import (
    AttributeComparison,
    BooleanCondition,
    Chain,
    Comparison,
    Condition,
    FilteredSet,
    NotCondition,
    SetExpression,
    SetOperation,
)

__all__ = ["SetEvaluator"]

#: Each applies elementwise to a value vector (and to one attribute value).
_COMPARATORS: dict[str, Callable] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
}

#: On sorted unique arrays each returns a sorted unique array.
_SET_OPERATORS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "UNION": np.union1d,
    "INTERSECT": np.intersect1d,
    "EXCEPT": np.setdiff1d,
}


class SetEvaluator:
    """Evaluates :class:`~repro.query.ast.SetExpression` trees.

    Parameters
    ----------
    strategy:
        Materialization strategy used for anchored walks and WHERE walks.
    stats:
        Optional statistics sink; phase times accumulate there.
    """

    def __init__(
        self,
        strategy: MaterializationStrategy,
        stats: ExecutionStats | None = None,
    ) -> None:
        self.strategy = strategy
        self.network = strategy.network
        self.stats = stats

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(self, expression: SetExpression) -> tuple[str, np.ndarray]:
        """Evaluate ``expression`` to ``(member_type, vertex indices)``: a
        strictly increasing ``int64`` array.

        Raises
        ------
        VertexNotFoundError
            When a chain anchors at a name that does not exist.
        ExecutionError
            On structurally invalid expressions that slipped past semantic
            validation (defensive).
        """
        # One cooperative check per set-expression node: set retrieval can
        # walk large frontiers, and block-granular materialization checks
        # alone would be too sparse on small expressions.
        check_deadline("set evaluation")
        if isinstance(expression, Chain):
            return self._evaluate_chain(expression)
        if isinstance(expression, SetOperation):
            return self._evaluate_operation(expression)
        if isinstance(expression, FilteredSet):
            member_type, members = self.evaluate(expression.base)
            if expression.where is not None:
                members = members[
                    self._condition_mask(members, member_type, expression.where)
                ]
            return member_type, members
        raise ExecutionError(f"unknown set expression node {expression!r}")

    # ------------------------------------------------------------------
    # Chains
    # ------------------------------------------------------------------
    def _evaluate_chain(self, chain: Chain) -> tuple[str, np.ndarray]:
        member_type = chain.member_type
        if chain.anchor is not None:
            anchor = self.network.find_vertex(chain.types[0], chain.anchor)
            if len(chain.types) == 1:
                members = np.array([anchor.index], dtype=np.int64)
            else:
                members = self.strategy.neighbor_support(
                    MetaPath(chain.types), anchor.index, self.stats
                )
        else:
            members = self._evaluate_unanchored(chain.types)
        if chain.where is not None:
            members = members[self._condition_mask(members, member_type, chain.where)]
        return member_type, members

    def _evaluate_unanchored(self, types: tuple[str, ...]) -> np.ndarray:
        """Members reachable along ``types`` from *any* start vertex.

        A bare type selects every vertex of that type; a longer chain keeps
        the member-type vertices with at least one path instance from some
        start vertex (non-zero columns of the count matrix, computed as a
        ones-vector pushed through the adjacency chain).
        """
        first_count = self.network.num_vertices(types[0])
        if len(types) == 1:
            return np.arange(first_count, dtype=np.int64)
        frontier = sparse.csr_matrix(np.ones((1, first_count)))
        for left, right in zip(types, types[1:]):
            frontier = frontier @ self.network.adjacency(left, right)
        return np.sort(frontier.tocsr().indices.astype(np.int64))

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def _evaluate_operation(self, operation: SetOperation) -> tuple[str, np.ndarray]:
        left_type, left_members = self.evaluate(operation.left)
        right_type, right_members = self.evaluate(operation.right)
        if left_type != right_type:
            raise ExecutionError(
                f"{operation.operator} operands have different member types: "
                f"{left_type!r} vs {right_type!r}"
            )
        combine = _SET_OPERATORS.get(operation.operator)
        if combine is None:  # pragma: no cover - parser restricts operators
            raise ExecutionError(f"unknown set operator {operation.operator!r}")
        return left_type, combine(left_members, right_members)

    # ------------------------------------------------------------------
    # WHERE filters
    # ------------------------------------------------------------------
    def _condition_mask(
        self,
        members: np.ndarray,
        member_type: str,
        condition: Condition,
    ) -> np.ndarray:
        if isinstance(condition, Comparison):
            return self._comparison_mask(members, member_type, condition)
        if isinstance(condition, AttributeComparison):
            return self._attribute_mask(members, member_type, condition)
        if isinstance(condition, BooleanCondition):
            left = self._condition_mask(members, member_type, condition.left)
            right = self._condition_mask(members, member_type, condition.right)
            return (left & right) if condition.operator == "AND" else (left | right)
        if isinstance(condition, NotCondition):
            return ~self._condition_mask(members, member_type, condition.operand)
        raise ExecutionError(f"unknown condition node {condition!r}")

    def _comparison_mask(
        self,
        members: np.ndarray,
        member_type: str,
        comparison: Comparison,
    ) -> np.ndarray:
        path = MetaPath((member_type,) + comparison.steps)
        compare = _COMPARATORS.get(comparison.operator)
        if compare is None:  # pragma: no cover - parser restricts operators
            raise ExecutionError(f"unknown comparison operator {comparison.operator!r}")
        # One bulk materialization for every member: COUNT is the per-row
        # stored-element count (indptr differences), PATHS the per-row sum.
        block = self.strategy.neighbor_matrix(path, members, self.stats)
        if comparison.function == "COUNT":
            values = np.diff(block.indptr).astype(float)
        else:  # PATHS: total instance count, ‖φ‖₁.
            values = np.asarray(block.sum(axis=1)).ravel().astype(float)
        return compare(values, comparison.value)

    def _attribute_mask(
        self,
        members: np.ndarray,
        member_type: str,
        comparison: AttributeComparison,
    ) -> np.ndarray:
        """Evaluate ``alias.attribute <op> literal`` per member vertex.

        NULL semantics: a missing attribute, or one whose type does not
        match the literal (string vs numeric), fails the predicate.
        """
        compare = _COMPARATORS.get(comparison.operator)
        if compare is None:  # pragma: no cover - parser restricts operators
            raise ExecutionError(f"unknown comparison operator {comparison.operator!r}")
        expect_string = isinstance(comparison.value, str)
        mask = np.zeros(len(members), dtype=bool)
        # The one per-member loop left: attributes are per-vertex Python dicts.
        for position, member in enumerate(members.tolist()):
            vertex = self.network.vertex(VertexId(member_type, member))
            value = vertex.attributes.get(comparison.attribute)
            if value is None:
                continue
            if expect_string:
                if not isinstance(value, str):
                    continue
                mask[position] = compare(value, comparison.value)
            else:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                mask[position] = compare(float(value), comparison.value)
        return mask
