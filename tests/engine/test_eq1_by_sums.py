"""Typed outcomes of scoring Equation 1 by sums.

``Ω(v) = φ(v)·(Σ_r φ(r)) / ‖φ(v)‖²`` is scored from a vector propagation
(``connectivity_sums``) and a cached per-vertex norm (``visibilities``)
wherever the strategy can propagate.  These tests pin what the new route
does at its edges: stored hops, deadlines, staleness, faults, invalidation,
threads, strategies that cannot propagate, and the exactness bound the byte
identity with the rows route rests on (``tests/properties/
test_sums_route.py`` holds the identity itself).
"""

import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import repro.metapath.materialize  # noqa: F401  (the module, not the function)
from repro import faultinject
from repro.core.measures import NetOutMeasure
from repro.engine import strategies as strategies_module
from repro.engine.caching import CachingStrategy
from repro.engine.deadline import Deadline, deadline_scope
from repro.engine.executor import QueryExecutor
from repro.engine.resilience import FallbackStrategy
from repro.engine.stats import PHASE_SCORING, ExecutionStats
from repro.engine.strategies import (
    BaselineStrategy,
    MaterializationStrategy,
    PMStrategy,
)
from repro.exceptions import (
    DeadlineExceededError,
    DegradedResultWarning,
    ExecutionError,
    InexactCountError,
    MetaPathError,
)
from repro.faultinject import FaultRule
from repro.hin.network import HeterogeneousInformationNetwork
from repro.hin.schema import NetworkSchema
from repro.metapath.materialize import materialize
from repro.metapath.metapath import MetaPath, WeightedMetaPath
from tests.engine.test_resilience import TWO_FEATURE_QUERY, ZOE_QUERY, make_policy

materialize_module = sys.modules["repro.metapath.materialize"]

APV = MetaPath.parse("author.paper.venue")
APVPA = MetaPath.parse("author.paper.venue.paper.author")


class SettableClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class DefinitionRows(MaterializationStrategy):
    """``benchmarks/e2e/oracle.py``'s ``DefinitionStrategy``, line for line."""

    name = "definition"

    def __init__(self, network) -> None:
        super().__init__(network)
        self._full: dict = {}

    def _materialize_block(self, path, vertex_indices, stats):
        if path not in self._full:
            full = materialize(self.network, path)
            full.sort_indices()
            self._full[path] = full
        return self._full[path][vertex_indices]


def _scores(result):
    return [(entry.name, entry.score) for entry in result]


class TestRouteSelection:
    def test_block_only_strategy_never_reaches_propagation(self, figure1, monkeypatch):
        """The oracle's strategy stays on rows: the benchmark's correctness
        gate is a differential check of the sums route against it."""
        expected = _scores(QueryExecutor(BaselineStrategy(figure1)).execute(ZOE_QUERY))

        def unreachable(*args, **kwargs):
            raise AssertionError("propagation reached from a rows-only strategy")

        monkeypatch.setattr(strategies_module, "connectivity_sums", unreachable)
        monkeypatch.setattr(materialize_module, "connectivity_sums", unreachable)
        scored = []
        original = NetOutMeasure.score
        monkeypatch.setattr(
            NetOutMeasure,
            "score",
            lambda self, *args: scored.append(1) or original(self, *args),
        )
        strategy = DefinitionRows(figure1)
        assert not strategy.can_propagate
        assert _scores(QueryExecutor(strategy).execute(ZOE_QUERY)) == expected
        assert scored == [1]

    @pytest.mark.parametrize("wrap", [lambda s: s, CachingStrategy])
    def test_coverage_strategies_skip_the_rows(self, figure1, monkeypatch, wrap):
        expected = _scores(QueryExecutor(DefinitionRows(figure1)).execute(ZOE_QUERY))
        monkeypatch.setattr(
            NetOutMeasure,
            "score",
            lambda self, *args: pytest.fail("Φ assembled on the sums route"),
        )
        strategy = wrap(PMStrategy(figure1))
        result = QueryExecutor(strategy).execute(ZOE_QUERY)
        assert _scores(result) == expected
        assert result.stats.propagated_vectors > 0
        assert result.stats.timer.total(PHASE_SCORING) > 0

    def test_a_subclass_overriding_score_is_still_scored_by_it(self, figure1):
        """``repro.service.simload`` and the service benchmarks wrap
        ``score`` with simulated work: the sums route must not bypass it."""
        calls = []

        class Wrapped(NetOutMeasure):
            def score(self, phi_candidates, phi_reference):
                calls.append(phi_candidates.shape)
                return super().score(phi_candidates, phi_reference)

        assert NetOutMeasure().scores_from_sums and not Wrapped().scores_from_sums
        wrapped = QueryExecutor(BaselineStrategy(figure1), Wrapped()).execute(ZOE_QUERY)
        plain = QueryExecutor(BaselineStrategy(figure1)).execute(ZOE_QUERY)
        assert len(calls) == 1 and _scores(wrapped) == _scores(plain)

    @pytest.mark.parametrize("aggregation", ["min", "max"])
    def test_non_additive_aggregations_stay_on_rows(self, figure1, aggregation):
        measure = NetOutMeasure(aggregation)
        assert not measure.scores_from_sums
        result = QueryExecutor(BaselineStrategy(figure1), measure).execute(ZOE_QUERY)
        assert result.stats.propagated_vectors == 0

    @pytest.mark.parametrize("share", [0.0, 1.0])  # all sweeps, all pushes
    def test_directed_relations_need_no_reverse_adjacency(self, monkeypatch, share):
        """Push and pull both read the forward matrices only: a one-way
        relation (no ``adjacency(right, left)``) scores like any other."""
        monkeypatch.setattr(materialize_module, "PUSH_SHARE", share)
        schema = NetworkSchema(["user", "paper"])
        schema.add_edge_type("user", "paper", symmetric=False)
        schema.add_edge_type("paper", "paper", symmetric=False)  # cites
        network = HeterogeneousInformationNetwork(schema)
        users = [network.add_vertex("user", name) for name in "uvw"]
        papers = [network.add_vertex("paper", name) for name in "abcd"]
        for user, paper in [(0, 0), (0, 1), (1, 1), (2, 3)]:
            network.add_edge(users[user], papers[paper])
        for citing, cited in [(0, 1), (1, 2), (0, 2), (3, 2), (2, 0)]:
            network.add_edge(papers[citing], papers[cited])
        feature = WeightedMetaPath(MetaPath.parse("user.paper.paper.paper"), 1.0)
        by_sums, by_rows = (
            QueryExecutor(route)._score_single_path(feature, [0, 1, 2], [1, 2, 2], None)
            for route in (BaselineStrategy(network), DefinitionRows(network))
        )
        assert by_sums.tobytes() == by_rows.tobytes()
        assert by_sums.any()

    def test_bad_indices_are_typed_errors(self, figure1):
        strategy = CachingStrategy(BaselineStrategy(figure1))
        for bad in ([-1], [10_000]):
            with pytest.raises(MetaPathError, match="out of range"):
                strategy.connectivity_sums(APV, [0], bad)
            with pytest.raises(MetaPathError, match="out of range"):
                strategy.visibilities(APV, bad)
        with pytest.raises(MetaPathError):
            strategy.visibilities(MetaPath.parse("author.venue"), [0])
        assert strategy.snapshot()["visibility_paths"] == 0


class TestStoredHops:
    """PM propagates over its stored length-2 matrices: one hop per segment
    where Baseline takes two adjacency hops, for the same bytes."""

    @pytest.mark.parametrize("path, pm_hops, baseline_hops", [(APV, 2, 4), (APVPA, 4, 8)])
    def test_hop_callbacks_per_call(self, figure1, monkeypatch, path, pm_hops, baseline_hops):
        hops = []

        def counting(label):
            if label == "meta-path propagation":
                hops.append(label)

        monkeypatch.setattr(strategies_module, "check_deadline", counting)
        everyone = list(range(figure1.num_vertices("author")))
        answers = {}
        for strategy, expected in [
            (PMStrategy(figure1), pm_hops),
            (BaselineStrategy(figure1), baseline_hops),
        ]:
            hops.clear()
            stats = ExecutionStats()
            answers[strategy.name] = strategy.connectivity_sums(path, everyone, everyone, stats)
            assert len(hops) == expected, strategy.name  # Sc = Sr: push + pull
            assert stats.propagated_vectors > 0
        assert answers["pm"].tobytes() == answers["baseline"].tobytes()


class TestDeadlines:
    def test_expiry_mid_propagation_raises(self, figure1):
        """The third hop's check finds the budget spent: two hops ran."""
        reads = iter([0.0, 0.0, 0.0, 5.0])
        deadline = Deadline(1.0, clock=lambda: next(reads))
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceededError, match="meta-path propagation"):
                BaselineStrategy(figure1).connectivity_sums(APV, [0, 1], [0, 1])

    def _late_second_feature(self, figure1, **policy):
        clock = SettableClock()
        strategy = BaselineStrategy(figure1)
        executor = QueryExecutor(
            strategy,
            resilience=make_policy(timeout_seconds=1.0, clock=clock, **policy),
        )
        original = strategy.connectivity_sums
        calls = []

        def late(path, *args):
            calls.append(path)
            if len(calls) == 2:
                clock.now = 5.0  # spent before the second path's first hop
            return original(path, *args)

        strategy.connectivity_sums = late
        return executor

    def test_partial_result_when_allowed(self, figure1):
        executor = self._late_second_feature(figure1, allow_partial=True)
        with pytest.warns(DegradedResultWarning):
            result = executor.execute(TWO_FEATURE_QUERY)
        assert result.degraded
        assert "1 of 2 feature meta-paths" in result.degradation_reason
        assert "meta-path propagation" in result.degradation_reason

    def test_error_when_partial_disallowed(self, figure1):
        executor = self._late_second_feature(figure1, allow_partial=False)
        with pytest.raises(DeadlineExceededError):
            executor.execute(TWO_FEATURE_QUERY)


class TestStalenessAndFaults:
    def test_stale_pm_index_still_raises(self, figure1):
        strategy = PMStrategy(figure1)
        strategy.connectivity_sums(APV, [0], [0])  # fresh: works
        figure1.add_vertex("author", "Late Arrival")
        with pytest.raises(ExecutionError, match="changed after"):
            strategy.connectivity_sums(APV, [0], [0])
        with pytest.raises(ExecutionError, match="changed after"):
            CachingStrategy(strategy).visibilities(APV, [0])

    def test_ladder_demotes_a_stale_rung(self, figure1):
        ladder = FallbackStrategy(figure1, policy=make_policy())
        ladder.connectivity_sums(APV, [0], [0])
        assert ladder.active_rung == "pm"
        figure1.add_vertex("author", "Late Arrival")
        sums = ladder.connectivity_sums(APV, [0, 1], [0, 1])
        assert ladder.active_rung == "spm"  # built after the mutation: fresh
        assert "connectivity_sums failed" in ladder.degradation_reason
        expected = BaselineStrategy(figure1).connectivity_sums(APV, [0, 1], [0, 1])
        assert sums.tobytes() == expected.tobytes()

    def test_matrix_multiply_fault_during_pm_sums_demotes(self, figure1):
        """A stored hop passes the point ``_expand`` passes for the same
        operand, so a broken index demotes the ladder for sums too."""
        ladder = FallbackStrategy(figure1, policy=make_policy(retry_attempts=1))
        assert ladder.active_rung == "pm"
        everyone = list(range(figure1.num_vertices("author")))
        expected = BaselineStrategy(figure1).connectivity_sums(APVPA, everyone, everyone)
        with faultinject.inject(FaultRule(point="matrix_multiply", times=None)):
            sums = ladder.connectivity_sums(APVPA, everyone, everyone)
        assert ladder.active_rung != "pm"
        assert ladder.events[0][0] == "pm"
        assert "connectivity_sums failed" in ladder.degradation_reason
        assert sums.tobytes() == expected.tobytes()

    def test_matrix_multiply_fault_on_a_visibility_miss_demotes(self, figure1):
        ladder = FallbackStrategy(figure1, policy=make_policy(retry_attempts=1))
        cached = CachingStrategy(ladder)
        expected = BaselineStrategy(figure1).visibilities(APVPA, [0, 1, 2])
        with faultinject.inject(FaultRule(point="matrix_multiply", times=None)):
            values = cached.visibilities(APVPA, [0, 1, 2])
        assert ladder.degraded and ladder.active_rung != "pm"
        assert values.tobytes() == expected.tobytes()
        assert (cached.visibility_hits, cached.visibility_misses) == (0, 3)
        assert cached.snapshot()["rows"] == 0  # a miss stores no row

    def test_cache_read_fault_self_heals(self, figure1):
        cached = CachingStrategy(BaselineStrategy(figure1))
        first = cached.visibilities(APV, [0, 1, 2])
        with faultinject.inject(FaultRule(point="cache_read", times=1)):
            healed = cached.visibilities(APV, [2, 0, 0])
        assert healed.tobytes() == first[[2, 0, 0]].tobytes()
        assert cached.faulted_reads == 3 and cached.visibility_hits == 0
        assert cached.visibility_misses == 6
        assert cached.snapshot()["visibility_known"] == 3  # forgotten, then refilled
        cached.visibilities(APV, [0, 1, 2])
        assert cached.visibility_hits == 3

    def test_faulted_query_answers_the_same(self, figure1):
        executor = QueryExecutor(CachingStrategy(PMStrategy(figure1)))
        clean = _scores(executor.execute(TWO_FEATURE_QUERY))
        with faultinject.inject(FaultRule(point="cache_read", times=None)):
            assert _scores(executor.execute(TWO_FEATURE_QUERY)) == clean


class TestVisibilityStore:
    def test_bookkeeping_includes_the_store(self, figure1):
        inner = BaselineStrategy(figure1)
        cached = CachingStrategy(inner)
        assert cached.index_size_bytes() == 0
        cached.visibilities(APV, [0, 1])
        cached.visibilities(APV, [1, 2])
        snapshot = cached.snapshot()
        assert snapshot["visibility_paths"] == 1
        assert snapshot["visibility_known"] == 3
        assert (snapshot["visibility_hits"], snapshot["visibility_misses"]) == (1, 3)
        # Row counters keep their meaning: rows only.
        assert (snapshot["hits"], snapshot["misses"], snapshot["rows"]) == (0, 0, 0)
        assert cached.index_size_bytes() == 8 * figure1.num_vertices("author")
        cached.clear()
        assert cached.index_size_bytes() == 0
        assert cached.snapshot()["visibility_misses"] == 0

    def test_version_bump_drops_cached_visibilities(self, figure1):
        cached = CachingStrategy(BaselineStrategy(figure1))
        zoe = figure1.find_vertex("author", "Zoe")
        before = cached.visibilities(APV, [zoe.index, 0, 1])
        paper = figure1.add_vertex("paper", "p6")
        figure1.add_edge(paper, zoe)
        figure1.add_edge(paper, figure1.find_vertex("venue", "KDD"))
        after = cached.visibilities(APV, [zoe.index])
        assert after[0] == 2.0**2 + 4.0**2 != before[0]  # ICDE 2, KDD 3 -> 4
        assert cached.snapshot()["visibility_known"] == 1
        figure1.bump_version()  # the hot-swap hook: no data change
        cached.visibilities(APV, [0])
        assert cached.snapshot()["visibility_known"] == 1
        assert cached.visibility_hits == 0

    def test_two_threads_filling_one_path_agree(self, small_corpus):
        network = small_corpus
        cached = CachingStrategy(BaselineStrategy(network))
        count = network.num_vertices("author")
        expected = BaselineStrategy(network).visibilities(APVPA, range(count))
        requests = [
            np.random.default_rng(seed).integers(0, count, size=40) for seed in range(6)
        ]
        failures = []

        def fill(indices):
            try:
                for _ in range(5):
                    values = cached.visibilities(APVPA, indices)
                    if values.tobytes() != expected[indices].tobytes():
                        failures.append(indices)
            except Exception as error:  # surfaced below, never swallowed
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=fill, args=(r,)) for r in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        snapshot = cached.snapshot()
        assert snapshot["visibility_known"] == len(np.unique(np.concatenate(requests)))
        # Every requested entry was answered exactly once, as a hit or a miss.
        assert snapshot["visibility_hits"] + snapshot["visibility_misses"] == 6 * 5 * 40


class TestExactnessBound:
    """Byte identity rests on one fact: every count is an integer < 2⁵³.

    Such integers and their sums are exact in float64, so any order of
    summation — rows then dot product, or hop by hop — gives the same
    number, and Ω is the one correctly rounded quotient of two exact
    integers.  Past 2⁵³ a count is no longer an integer in float64 and the
    guarantee ends (ROADMAP item 4f).
    """

    @staticmethod
    def _network(parallel_edges: float):
        schema = NetworkSchema(["author", "paper", "venue"])
        schema.add_edge_type("author", "paper")
        schema.add_edge_type("paper", "venue")
        network = HeterogeneousInformationNetwork(schema)
        authors = [network.add_vertex("author", name) for name in "ab"]
        papers = [network.add_vertex("paper", name) for name in "pq"]
        venue = network.add_vertex("venue", "v")
        network.add_edge(authors[0], papers[0], parallel_edges)
        network.add_edge(authors[0], papers[1], 1.0)
        network.add_edge(authors[1], papers[1], 3.0)
        network.add_edge(papers[0], venue, parallel_edges)
        network.add_edge(papers[1], venue, 1.0)
        return network

    @staticmethod
    def _exact(parallel_edges: int):
        """(numerator, visibility) of author ``a`` against {a, b}, as integers."""
        phi_a, phi_b = parallel_edges * parallel_edges + 1, 3
        return phi_a * (phi_a + phi_b), phi_a * phi_a

    def test_inside_the_bound_every_route_is_the_exact_quotient(self):
        edges = 2**12 + 1  # visibility ≈ 2⁴⁸
        strategy = BaselineStrategy(self._network(float(edges)))
        numerator, visibility = self._exact(edges)
        assert max(numerator, visibility) < 2**53
        sums = strategy.connectivity_sums(APV, [0], [0, 1])
        assert (int(sums[0]), int(strategy.visibilities(APV, [0])[0])) == (
            numerator,
            visibility,
        )
        feature = WeightedMetaPath(APV, 1.0)
        by_sums, by_rows = (
            QueryExecutor(route)._score_single_path(feature, [0], [0, 1], None)
            for route in (strategy, DefinitionRows(strategy.network))
        )
        assert by_sums.tobytes() == by_rows.tobytes()
        assert Fraction(float(by_sums[0])) == Fraction(
            float(Fraction(numerator, visibility))
        )

    def test_past_the_bound_counts_stop_being_integers(self):
        """So a visibility past the bound is refused, naming the path,
        where it used to come back rounded."""
        assert float(2**53) + 1.0 == float(2**53)  # the bound itself
        edges = 2**14 + 1  # visibility ≈ 2⁵⁶
        strategy = BaselineStrategy(self._network(float(edges)))
        _, visibility = self._exact(edges)
        assert visibility > 2**53
        with pytest.raises(ExecutionError, match="visibilities of author.paper.venue"):
            strategy.visibilities(APV, [0])

    # A path count of exactly 2⁵³ + 1: 3 · 3002399751580331, each factor an
    # exact float64, whose product rounds to 2⁵³.
    PAST = 3002399751580331
    PAST_QUERY = (
        'FIND OUTLIERS FROM author{"a"}.paper.author '
        "JUDGED BY author.paper.venue TOP 2;"
    )

    def _past_network(self):
        schema = NetworkSchema(["author", "paper", "venue"])
        schema.add_edge_type("author", "paper")
        schema.add_edge_type("paper", "venue")
        network = HeterogeneousInformationNetwork(schema)
        a, b = (network.add_vertex("author", name) for name in "ab")
        paper = network.add_vertex("paper", "p")
        venue = network.add_vertex("venue", "v")
        network.add_edge(a, paper, 3.0)
        network.add_edge(b, paper, 1.0)
        network.add_edge(paper, venue, float(self.PAST))
        return network

    def test_a_count_of_two_to_the_53_plus_one_is_refused_on_the_rows_route(self):
        assert 3 * self.PAST == 2**53 + 1
        assert 3.0 * float(self.PAST) == float(2**53)  # what used to be answered
        rows = QueryExecutor(DefinitionRows(self._past_network()))
        with pytest.raises(ExecutionError, match="path counts of author.paper.venue"):
            rows.execute(self.PAST_QUERY)

    @pytest.mark.parametrize("route", [BaselineStrategy, PMStrategy])
    def test_a_count_of_two_to_the_53_plus_one_is_refused_on_the_sums_route(
        self, route
    ):
        strategy = route(self._past_network())
        assert strategy.can_propagate
        with pytest.raises(ExecutionError, match="numerators of author.paper.venue"):
            strategy.connectivity_sums(APV, np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ExecutionError, match="of author.paper.venue reach 2"):
            QueryExecutor(strategy).execute(self.PAST_QUERY)

    @pytest.mark.parametrize("route", ["rows", "sums"])
    def test_a_ladder_refuses_an_inexact_count_without_demoting(self, route):
        """Every rung forms the same counts, so a count past the bound is
        the data's fault: the ladder re-raises it and stays on PM."""
        ladder = FallbackStrategy(self._past_network(), policy=make_policy())
        if route == "rows":
            ladder.can_propagate = False
        with pytest.raises(InexactCountError, match="of author.paper.venue reach 2"):
            QueryExecutor(ladder).execute(self.PAST_QUERY)
        assert (ladder.active_rung, ladder.events) == ("pm", [])

    def test_a_served_ladder_refuses_an_inexact_count_and_stays_on_pm(self):
        from repro.service import QueryService, ServiceConfig

        config = ServiceConfig(workers=1)
        with QueryService.from_network(
            self._past_network(), config, resilience=make_policy()
        ) as service:
            with pytest.raises(InexactCountError):
                service.execute(self.PAST_QUERY)
            ladder = service.handle._concrete_strategy()
            assert (ladder.active_rung, ladder.events) == ("pm", [])
