"""Property: Equation 1 by sums ≡ by rows ≡ by pairs, byte for byte.

The executor scores additive NetOut from two vector passes and a cached
norm (``connectivity_sums`` + ``visibilities``) wherever the strategy can
propagate, and from neighbor-vector rows everywhere else.  Both routes, and
the naive pairwise definition ``Ω(v) = Σ_r κ(v, r)``, must return the same
float64 bytes for every strategy, with and without the row cache, for every
shape of candidate and reference set, and whichever hops are pushed edge by
edge or swept whole — including PM's hops over its stored length-2
matrices, whose sweeps need the transpose of a possibly directed segment.
"""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.metapath.materialize  # noqa: F401  (the module, not the function)
from repro.core.measures import NetOutMeasure
from repro.engine.caching import CachingStrategy
from repro.engine.executor import QueryExecutor
from repro.engine.index import build_pm_index
from repro.engine.resilience import FallbackStrategy
from repro.engine.stats import ExecutionStats
from repro.engine.strategies import (
    BaselineStrategy,
    MaterializationStrategy,
    PMStrategy,
    SPMStrategy,
)
from repro.hin.network import HeterogeneousInformationNetwork
from repro.hin.schema import NetworkSchema
from repro.metapath.materialize import decompose_length2
from repro.metapath.metapath import MetaPath, WeightedMetaPath
from tests.properties.test_strategy_properties import PATHS, networks

materialize_module = sys.modules["repro.metapath.materialize"]

#: Lengths 1-4 from ``author``, the odd tail (length 3) included.
SUM_PATHS = PATHS[1:3] + PATHS[4:6]


class RowsOnly(MaterializationStrategy):
    """``inner``'s rows behind a ``_materialize_block``-only strategy.

    What ``benchmarks/e2e/oracle.py``'s ``DefinitionStrategy`` is to the
    executor: it cannot propagate, so it is scored from rows.
    """

    name = "rows-only"

    def __init__(self, inner) -> None:
        super().__init__(inner.network)
        self.inner = inner

    def _materialize_block(self, path, vertex_indices, stats):
        return self.inner.neighbor_matrix(path, vertex_indices, stats)


def _strategy(kind, network):
    if kind == "baseline":
        return BaselineStrategy(network)
    if kind == "pm":
        return PMStrategy(network)
    selected = list(network.vertices("author"))[::2]
    if kind == "spm":
        return SPMStrategy(network, selected=selected)
    return FallbackStrategy(network, spm_selected=selected)


@st.composite
def scenarios(draw):
    network = draw(networks())
    # No paper, so no path instance of any length >= 1: visibility zero.
    loner = network.add_vertex("author", "Loner").index
    authors = st.integers(0, network.num_vertices("author") - 1)
    candidates = sorted(draw(st.sets(authors, min_size=1, max_size=8)) | {loner})
    shape = draw(st.sampled_from(["same", "compared_to", "duplicated"]))
    if shape == "same":
        reference = list(candidates)
    elif shape == "compared_to":
        reference = sorted(draw(st.sets(authors, min_size=1, max_size=8)))
    else:
        reference = draw(st.lists(authors, min_size=2, max_size=10))
        reference.append(reference[0])
    return network, candidates, reference


class TestSumsEqualRowsEqualPairs:
    @given(
        scenarios(),
        st.sampled_from(["baseline", "spm", "pm", "ladder"]),
        st.booleans(),
        st.sampled_from(SUM_PATHS),
        st.sampled_from(["sum", "mean"]),
        st.sampled_from([0.0, 0.25, 1.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_byte_identical(self, scenario, kind, cached, path, aggregation, share):
        network, candidates, reference = scenario
        strategy = _strategy(kind, network)
        if cached:
            strategy = CachingStrategy(strategy, max_rows=4)
        measure = NetOutMeasure(aggregation)
        feature = WeightedMetaPath(path, 1.0)

        def score(executor):
            return executor._score_single_path(
                feature, candidates, reference, ExecutionStats()
            )

        assert strategy.can_propagate
        saved = materialize_module.PUSH_SHARE
        materialize_module.PUSH_SHARE = share  # all sweeps / mixed / all pushes
        try:
            by_sums = score(QueryExecutor(strategy, measure))
            again = score(QueryExecutor(strategy, measure))  # visibilities cached
        finally:
            materialize_module.PUSH_SHARE = saved
        by_rows = score(QueryExecutor(RowsOnly(strategy), measure))
        by_pairs = measure.score_pairwise(
            strategy.neighbor_matrix(path, candidates),
            strategy.neighbor_matrix(path, reference),
        )
        assert by_sums.dtype == by_rows.dtype == np.float64
        assert by_sums.tobytes() == by_rows.tobytes() == again.tobytes()
        # The pairwise definition divides each κ before summing, which rounds
        # differently: it pins the values, the two Eq. 1 routes pin the bytes.
        np.testing.assert_allclose(by_sums, by_pairs, rtol=1e-12, atol=0)
        assert by_sums[candidates.index(max(candidates))] == 0.0  # the loner


#: Lengths 1-5 over a directed citation relation, odd tails included.
DIRECTED_PATHS = [
    MetaPath.parse("user.paper"),
    MetaPath.parse("user.paper.paper"),
    MetaPath.parse("paper.paper.paper"),
    MetaPath.parse("user.paper.paper.user"),
    MetaPath.parse("user.paper.paper.paper.user"),
    MetaPath.parse("user.paper.paper.paper.paper.user"),
]


@st.composite
def directed_scenarios(draw):
    """Users who write papers (symmetric) that cite papers (directed): the
    PM index stores ``paper.paper.user`` although it is not the transpose
    of ``user.paper.paper``, and ``paper.paper.paper`` is its own reverse."""
    schema = NetworkSchema(["user", "paper"])
    schema.add_edge_type("user", "paper")
    schema.add_edge_type("paper", "paper", symmetric=False)
    network = HeterogeneousInformationNetwork(schema)
    users = [network.add_vertex("user", f"u{i}") for i in range(draw(st.integers(1, 4)))]
    papers = [network.add_vertex("paper", f"p{i}") for i in range(draw(st.integers(1, 6)))]
    pairs = st.tuples(st.integers(0, len(users) - 1), st.integers(0, len(papers) - 1))
    for user, paper in draw(st.lists(pairs, max_size=10)):
        network.add_edge(users[user], papers[paper])
    cites = st.tuples(st.integers(0, len(papers) - 1), st.integers(0, len(papers) - 1))
    for citing, cited in draw(st.lists(cites, max_size=12)):
        network.add_edge(papers[citing], papers[cited])
    path = draw(st.sampled_from(DIRECTED_PATHS))
    members = st.integers(0, network.num_vertices(path.source) - 1)
    candidates = sorted(draw(st.sets(members, min_size=1, max_size=6)))
    if draw(st.booleans()):
        reference = list(candidates)
    else:
        reference = sorted(draw(st.sets(members, min_size=1, max_size=6)))
    return network, path, candidates, reference


class TestStoredOperands:
    """PM propagates over its stored length-2 matrices, sweeping a hop by
    ``M.T``: the same bytes as its own rows and as Baseline's adjacency
    hops."""

    @staticmethod
    def _check(strategy, path, candidates, reference, share):
        baseline = BaselineStrategy(strategy.network)
        feature = WeightedMetaPath(path, 1.0)

        def score(executor):
            return executor._score_single_path(
                feature, candidates, reference, ExecutionStats()
            )

        saved = materialize_module.PUSH_SHARE
        materialize_module.PUSH_SHARE = share
        try:
            by_sums = score(QueryExecutor(strategy))
            sums, expected = (
                route.connectivity_sums(path, candidates, reference)
                for route in (strategy, baseline)
            )
        finally:
            materialize_module.PUSH_SHARE = saved
        by_rows = score(QueryExecutor(RowsOnly(strategy)))
        assert by_sums.tobytes() == by_rows.tobytes()
        assert sums.tobytes() == expected.tobytes()

    @given(
        scenarios(),
        st.sampled_from(PATHS[1:]),  # lengths 1-5
        st.booleans(),
        st.sampled_from([0.0, 0.25, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_pm_sums_equal_rows(self, scenario, path, own_segments_only, share):
        """``own_segments_only``: ``build_pm_index(paths=…)`` holding just the
        query's segments, not their reverses."""
        network, candidates, reference = scenario
        index = None
        if own_segments_only:
            index = build_pm_index(network, paths=decompose_length2(path)[0])
        strategy = PMStrategy(network, index=index)
        self._check(strategy, path, candidates, reference, share)

    @given(directed_scenarios(), st.sampled_from([0.0, 0.25, 1.0]))
    @settings(max_examples=80, deadline=None)
    def test_directed_relation_sweeps_by_the_transpose(self, scenario, share):
        network, path, candidates, reference = scenario
        self._check(PMStrategy(network), path, candidates, reference, share)
