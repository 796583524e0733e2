"""One table, every entry point: bad input is refused the same way everywhere.

A query enters the engine through :meth:`QueryExecutor.execute`,
:meth:`ProgressiveQueryExecutor.stream`, the set form of
:meth:`OutlierDetector.detect_with_features`, or (as an SPM initialization
query) :meth:`WorkloadAnalyzer.analyze`.  Each goes through the executor's
one validation and one set retrieval, so each raises the same exception type
for the same input.  The analyzer alone treats a dead anchor or an empty
candidate set as an analyzed query with no members.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro.engine.detector import OutlierDetector
from repro.engine.executor import QueryExecutor
from repro.engine.optimizer import WorkloadAnalyzer
from repro.engine.progressive import ProgressiveQueryExecutor
from repro.engine.strategies import BaselineStrategy
from repro.exceptions import (
    ExecutionError,
    QuerySemanticError,
    QuerySyntaxError,
    VertexNotFoundError,
)


class Case(NamedTuple):
    candidates: str
    reference: str | None
    features: str
    expected: type[Exception]
    #: The analyzer counts these as analyzed queries with no members.
    analyzer_tolerates: bool = False
    match: str | None = None

    @property
    def query(self) -> str:
        compared = "" if self.reference is None else f" COMPARED TO {self.reference}"
        return (
            f"FIND OUTLIERS FROM {self.candidates}{compared} "
            f"JUDGED BY {self.features} TOP 3;"
        )


CASES = {
    "syntax": Case('author{', None, "author.paper.venue", QuerySyntaxError),
    "unknown-type": Case("galaxy", None, "galaxy.paper", QuerySemanticError),
    "illegal-step": Case(
        "author.venue", None, "venue.paper.author", QuerySemanticError,
        match="author-venue",
    ),
    "other-member-type": Case(
        "author", "venue", "author.paper.venue", QuerySemanticError,
        match="member type",
    ),
    "dead-anchor": Case(
        'author{"Nobody"}.paper.author', None, "author.paper.venue",
        VertexNotFoundError, analyzer_tolerates=True,
    ),
    "empty-set": Case(
        "author AS A WHERE COUNT(A.paper) > 99", None, "author.paper.venue",
        ExecutionError, analyzer_tolerates=True, match="candidate set is empty",
    ),
}


def _execute(network, case):
    QueryExecutor(BaselineStrategy(network)).execute(case.query)


def _stream(network, case):
    list(ProgressiveQueryExecutor(BaselineStrategy(network)).stream(case.query))


def _detect_with_features(network, case):
    def ones(_network, _member_type, indices):
        return np.ones((len(indices), 1))

    OutlierDetector(network).detect_with_features(
        case.candidates, ones, reference=case.reference
    )


def _analyze(network, case):
    WorkloadAnalyzer(network).analyze(case.query)


ENTRY_POINTS = {
    "execute": _execute,
    "stream": _stream,
    "features": _detect_with_features,
    "analyze": _analyze,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", CASES)
def test_same_refusal(figure1, case, entry):
    case, enter = CASES[case], ENTRY_POINTS[entry]
    if entry == "analyze" and case.analyzer_tolerates:
        analyzer = WorkloadAnalyzer(figure1)
        analyzer.analyze(case.query)
        assert analyzer.relative_frequencies() == {}
        # Tolerated, not refused: the entry counts towards the window.
        analyzer.analyze(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        assert set(analyzer.relative_frequencies().values()) == {0.5}
        return
    with pytest.raises(case.expected, match=case.match) as caught:
        enter(figure1, case)
    assert type(caught.value) is case.expected
