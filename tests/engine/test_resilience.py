"""Tests for :mod:`repro.engine.resilience` and :mod:`repro.faultinject`.

Everything here is deterministic: clocks and sleeps are injected fakes, and
faults fire on seeded schedules, so the suite proves *exactly* which rung of
the degradation ladder answered each query and when deadlines trip.
"""

import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import faultinject
from repro.engine.deadline import (
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.engine.detector import OutlierDetector
from repro.engine.executor import QueryExecutor
from repro.engine.resilience import (
    DEGRADATION_LADDER,
    CircuitBreaker,
    Deadline,
    FallbackStrategy,
    ResiliencePolicy,
    ResourceGuard,
    estimate_length2_nnz,
    estimate_pm_index_bytes,
    estimate_spm_index_bytes,
    retry_with_backoff,
)
from repro.engine.strategies import BaselineStrategy
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    DegradedResultWarning,
    ExecutionError,
    QuerySemanticError,
    ResourceLimitError,
    TransientFaultError,
)
from repro.faultinject import FaultInjector, FaultRule
from repro.metapath.metapath import MetaPath
from repro.query.parser import parse_query

ZOE_QUERY = (
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3;"
)
TWO_FEATURE_QUERY = (
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue, author.paper.author TOP 3;"
)


class FakeClock:
    """A clock that advances a fixed step every time it is read."""

    def __init__(self, step: float = 0.01) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def make_policy(**kwargs) -> ResiliencePolicy:
    """A policy with fake time sources so no test ever sleeps for real."""
    kwargs.setdefault("clock", FakeClock())
    kwargs.setdefault("sleep", lambda _seconds: None)
    kwargs.setdefault("retry_base_delay", 0.0)
    return ResiliencePolicy(**kwargs)


# ----------------------------------------------------------------------
# Deadline primitives
# ----------------------------------------------------------------------
class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired
        deadline.check("anything")  # does not raise

    def test_expiry_raises_with_budget_and_elapsed(self):
        clock = FakeClock(step=0.03)
        deadline = Deadline(0.05, clock=clock)
        with pytest.raises(DeadlineExceededError) as excinfo:
            while True:
                deadline.check("loop body")
        assert excinfo.value.budget_seconds == pytest.approx(0.05)
        assert excinfo.value.elapsed_seconds > 0.05

    def test_remaining_decreases(self):
        clock = FakeClock(step=0.01)
        deadline = Deadline(1.0, clock=clock)
        first = deadline.remaining()
        second = deadline.remaining()
        assert second < first

    def test_scope_installs_and_restores(self):
        deadline = Deadline(None)
        assert current_deadline() is None
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            check_deadline("inside scope")
        assert current_deadline() is None

    def test_nested_scopes(self):
        outer, inner = Deadline(None), Deadline(None)
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer

    def test_none_scope_is_noop(self):
        with deadline_scope(None):
            assert current_deadline() is None
            check_deadline("no deadline active")  # does not raise

    def test_negative_budget_rejected(self):
        with pytest.raises(ExecutionError):
            Deadline(-1.0)


class TestDeadlineAcceptance:
    """Acceptance (a): deadline-exceeded raises within 2x the budget."""

    def test_query_deadline_raises_within_twice_budget(self, figure1):
        budget = 0.02
        policy = make_policy(
            timeout_seconds=budget,
            clock=FakeClock(step=0.01),
            allow_partial=False,
        )
        detector = OutlierDetector(figure1, strategy="baseline", resilience=policy)
        with pytest.raises(DeadlineExceededError) as excinfo:
            detector.detect(ZOE_QUERY)
        error = excinfo.value
        assert error.budget_seconds == pytest.approx(budget)
        # Cooperative checks are dense enough that the overrun is bounded:
        # the fake clock steps 0.01 per read, so one extra check at most.
        assert error.elapsed_seconds <= 2 * budget

    def test_no_timeout_means_no_deadline(self, figure1):
        policy = make_policy(timeout_seconds=None)
        detector = OutlierDetector(figure1, strategy="baseline", resilience=policy)
        result = detector.detect(ZOE_QUERY)
        assert len(result) == 3
        assert not result.degraded


class TestPartialResults:
    def test_deadline_mid_scoring_yields_partial_ranking(self, figure1):
        policy = make_policy(allow_partial=True)
        executor = QueryExecutor(BaselineStrategy(figure1), resilience=policy)
        original = executor._score_single_path
        calls = {"n": 0}

        def flaky(feature, candidates, reference, stats):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise DeadlineExceededError(
                    "budget gone", budget_seconds=0.1, elapsed_seconds=0.2
                )
            return original(feature, candidates, reference, stats)

        executor._score_single_path = flaky
        with pytest.warns(DegradedResultWarning):
            result = executor.execute(parse_query(TWO_FEATURE_QUERY))
        assert result.degraded
        assert "1 of 2 feature meta-paths" in result.degradation_reason
        assert len(result) == 3
        assert result.names()  # still a ranked answer

    def test_partial_disallowed_raises(self, figure1):
        policy = make_policy(allow_partial=False)
        executor = QueryExecutor(BaselineStrategy(figure1), resilience=policy)

        def always_late(feature, candidates, reference, stats):
            raise DeadlineExceededError(
                "budget gone", budget_seconds=0.1, elapsed_seconds=0.2
            )

        executor._score_single_path = always_late
        with pytest.raises(DeadlineExceededError):
            executor.execute(parse_query(TWO_FEATURE_QUERY))

    def test_no_partial_when_nothing_scored(self, figure1):
        """Partial needs at least one scored feature; else the error surfaces."""
        policy = make_policy(allow_partial=True)
        executor = QueryExecutor(BaselineStrategy(figure1), resilience=policy)

        def always_late(feature, candidates, reference, stats):
            raise DeadlineExceededError(
                "budget gone", budget_seconds=0.1, elapsed_seconds=0.2
            )

        executor._score_single_path = always_late
        with pytest.raises(DeadlineExceededError):
            executor.execute(parse_query(TWO_FEATURE_QUERY))


# ----------------------------------------------------------------------
# Retry with exponential backoff
# ----------------------------------------------------------------------
class TestRetry:
    def test_transient_then_recover(self):
        attempts = {"n": 0}
        sleeps: list[float] = []

        def operation():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise TransientFaultError("flaky")
            return "ok"

        result = retry_with_backoff(
            operation, attempts=3, base_delay=0.1, multiplier=2.0, sleep=sleeps.append
        )
        assert result == "ok"
        assert attempts["n"] == 3
        assert sleeps == [0.1, 0.2]  # exponential backoff, recorded not slept

    def test_exhausted_attempts_propagate_last_error(self):
        def operation():
            raise TransientFaultError("never recovers")

        with pytest.raises(TransientFaultError):
            retry_with_backoff(operation, attempts=3, sleep=lambda _s: None)

    def test_non_retryable_propagates_immediately(self):
        attempts = {"n": 0}

        def operation():
            attempts["n"] += 1
            raise ExecutionError("permanent")

        with pytest.raises(ExecutionError):
            retry_with_backoff(operation, attempts=5, sleep=lambda _s: None)
        assert attempts["n"] == 1

    def test_deadline_checked_before_backoff_sleep(self):
        clock = FakeClock(step=0.2)
        deadline = Deadline(0.1, clock=clock)

        def operation():
            raise TransientFaultError("flaky")

        with pytest.raises(DeadlineExceededError):
            retry_with_backoff(
                operation, attempts=5, sleep=lambda _s: None, deadline=deadline
            )

    def test_zero_attempts_rejected(self):
        with pytest.raises(ExecutionError):
            retry_with_backoff(lambda: None, attempts=0)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _failing(self):
        raise TransientFaultError("down")

    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(3):
            with pytest.raises(TransientFaultError):
                breaker.call(self._failing)
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(self._failing)

    def test_open_short_circuits_the_operation(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        with pytest.raises(TransientFaultError):
            breaker.call(self._failing)
        calls = {"n": 0}

        def counted():
            calls["n"] += 1

        with pytest.raises(CircuitOpenError):
            breaker.call(counted)
        assert calls["n"] == 0  # the guarded operation was never invoked

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            with pytest.raises(TransientFaultError):
                breaker.call(self._failing)
        breaker.call(lambda: "fine")
        assert breaker.consecutive_failures == 0
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_after_reset_window(self):
        clock = FakeClock(step=0.0)
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=10.0, clock=clock
        )
        with pytest.raises(TransientFaultError):
            breaker.call(self._failing)
        assert breaker.state == CircuitBreaker.OPEN
        clock.now += 11.0  # the reset window elapses
        assert breaker.call(lambda: "recovered") == "recovered"
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        clock = FakeClock(step=0.0)
        breaker = CircuitBreaker(
            failure_threshold=2, reset_seconds=10.0, clock=clock
        )
        for _ in range(2):
            with pytest.raises(TransientFaultError):
                breaker.call(self._failing)
        clock.now += 11.0
        with pytest.raises(TransientFaultError):  # the trial call fails...
            breaker.call(self._failing)
        assert breaker.state == CircuitBreaker.OPEN  # ...and re-opens
        with pytest.raises(CircuitOpenError):
            breaker.call(self._failing)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ExecutionError):
            CircuitBreaker(failure_threshold=0)


class TestBreakerAcceptance:
    """Acceptance (c): the breaker opens after N consecutive index-build
    failures and short-circuits further attempts — no more build calls."""

    def test_breaker_short_circuits_index_builds(self, figure1):
        policy = make_policy(retry_attempts=1, breaker_threshold=2)
        rule = FaultRule(point="index_build", times=None)  # always failing
        with faultinject.inject(rule) as injector:
            # Two detectors sharing the policy: each PM build attempt fails,
            # feeding the shared breaker.
            for _ in range(2):
                detector = OutlierDetector(figure1, strategy="pm", resilience=policy)
                result = detector.detect(ZOE_QUERY)
                assert result.degraded
            build_calls_when_open = injector.calls["index_build"]
            assert policy.breaker("pm-index-build").state == CircuitBreaker.OPEN

            # Third detector: the open breaker short-circuits before the
            # builder runs, so the fault point sees no new calls... but the
            # query is still answered by a weaker rung.
            detector = OutlierDetector(figure1, strategy="pm", resilience=policy)
            result = detector.detect(ZOE_QUERY)
            assert injector.calls["index_build"] == build_calls_when_open
            assert result.degraded
            assert "circuit breaker" in result.degradation_reason
            assert len(result) == 3


# ----------------------------------------------------------------------
# Memory guardrails
# ----------------------------------------------------------------------
class TestResourceGuard:
    def test_unlimited_guard_passes_everything(self):
        ResourceGuard(None).check_estimate(10**12, "anything")

    def test_over_budget_raises_with_sizes(self):
        guard = ResourceGuard(max_memory_bytes=1000)
        with pytest.raises(ResourceLimitError) as excinfo:
            guard.check_estimate(2000, "the PM index build")
        assert excinfo.value.estimated_bytes == 2000
        assert excinfo.value.limit_bytes == 1000

    def test_under_budget_passes(self):
        ResourceGuard(max_memory_bytes=1000).check_estimate(999, "small build")

    def test_estimates_are_positive_and_ordered(self, figure1):
        """PM prices every vertex; SPM over a subset must cost less."""
        pm_bytes = estimate_pm_index_bytes(figure1)
        zoe = figure1.find_vertex("author", "Zoe")
        spm_bytes = estimate_spm_index_bytes(figure1, [zoe])
        assert pm_bytes > 0
        assert 0 < spm_bytes < pm_bytes

    def test_length2_estimate_requires_two_hops(self, figure1):
        with pytest.raises(ExecutionError):
            estimate_length2_nnz(figure1, MetaPath.parse("author.paper.author.paper"))

    def test_nnz_estimate_bounded_by_dense(self, figure1):
        path = MetaPath.parse("author.paper.venue")
        estimate = estimate_length2_nnz(figure1, path)
        dense = figure1.num_vertices("author") * figure1.num_vertices("venue")
        assert 0 < estimate <= dense

    def test_tiny_memory_budget_demotes_the_pm_rung(self, figure1):
        """An unaffordable PM estimate demotes instead of OOM-ing."""
        policy = make_policy(max_memory_mb=1e-6)  # ~1 byte: PM cannot fit
        detector = OutlierDetector(figure1, strategy="pm", resilience=policy)
        result = detector.detect(ZOE_QUERY)
        assert result.degraded
        assert "memory budget" in result.degradation_reason
        assert detector.strategy.active_rung != "pm"
        assert len(result) == 3

    def test_memory_budget_raises_when_degradation_disallowed(self, figure1):
        policy = make_policy(max_memory_mb=1e-6, allow_degraded=False)
        strategy = FallbackStrategy(figure1, ladder=("pm",), policy=policy)
        executor = QueryExecutor(strategy, resilience=policy)
        with pytest.raises(ResourceLimitError):
            executor.execute(ZOE_QUERY)


# ----------------------------------------------------------------------
# The degradation ladder (acceptance (b))
# ----------------------------------------------------------------------
class TestDegradationLadder:
    def test_pm_build_failure_degrades_to_baseline_and_ranks(self, figure1):
        """Acceptance (b): forced PM build failure walks the ladder down to
        on-the-fly counting and still returns a ranked, flagged result."""
        policy = make_policy(retry_attempts=1)
        rule = FaultRule(point="index_build", times=None)
        with faultinject.inject(rule, seed=7) as injector:
            detector = OutlierDetector(figure1, strategy="pm", resilience=policy)
            with pytest.warns(DegradedResultWarning):
                result = detector.detect(ZOE_QUERY)
        assert injector.fired["index_build"] > 0
        assert result.degraded
        assert result.degradation_reason.startswith("pm: build failed")
        assert "spm:" in result.degradation_reason
        strategy = detector.strategy
        assert isinstance(strategy, FallbackStrategy)
        assert strategy.active_rung == "baseline"
        assert [rung for rung, _ in strategy.events] == ["pm", "spm"]
        # The answer itself is a complete ranking from the baseline rung.
        assert len(result) == 3
        assert result.names()[0] is not None
        assert result.to_json()  # degraded flag serializes

    def test_degraded_ranking_matches_undegraded_baseline(self, figure1):
        """The baseline rung answers identically to a plain baseline run."""
        policy = make_policy(retry_attempts=1)
        with faultinject.inject(FaultRule(point="index_build", times=None)):
            detector = OutlierDetector(figure1, strategy="pm", resilience=policy)
            with pytest.warns(DegradedResultWarning):
                degraded = detector.detect(ZOE_QUERY)
        plain = OutlierDetector(figure1, strategy="baseline").detect(ZOE_QUERY)
        assert [(e.name, pytest.approx(e.score)) for e in plain] == [
            (e.name, e.score) for e in degraded
        ]

    def test_deterministic_under_fixed_seed(self, figure1):
        """Same seed, same rules -> byte-identical degradation story."""
        outcomes = []
        for _ in range(2):
            policy = make_policy(retry_attempts=2)
            rule = FaultRule(point="index_build", probability=0.5, times=None)
            with faultinject.inject(rule, seed=123) as injector:
                detector = OutlierDetector(figure1, strategy="pm", resilience=policy)
                result = detector.detect(ZOE_QUERY)
                outcomes.append(
                    (
                        dict(injector.calls),
                        dict(injector.fired),
                        result.degraded,
                        result.degradation_reason,
                        [(e.name, e.score) for e in result],
                    )
                )
        assert outcomes[0] == outcomes[1]

    def test_transient_fault_recovered_by_retry_not_degraded(self, figure1):
        """One transient build failure is absorbed by the retry layer."""
        policy = make_policy(retry_attempts=3)
        rule = FaultRule(point="index_build", times=1)
        with faultinject.inject(rule) as injector:
            detector = OutlierDetector(figure1, strategy="pm", resilience=policy)
            result = detector.detect(ZOE_QUERY)
        assert injector.fired["index_build"] == 1
        assert not result.degraded
        assert result.degradation_reason is None
        assert detector.strategy.active_rung == "pm"

    def test_allow_degraded_false_raises_instead(self, figure1):
        policy = make_policy(retry_attempts=1, allow_degraded=False)
        with faultinject.inject(FaultRule(point="index_build", times=None)):
            # allow_degraded=False -> plain strategy path, no ladder: the
            # build failure surfaces directly.
            with pytest.raises(TransientFaultError):
                OutlierDetector(figure1, strategy="pm", resilience=policy)

    def test_spm_request_starts_partway_down_the_ladder(self, figure1):
        policy = make_policy(retry_attempts=1)
        detector = OutlierDetector(figure1, strategy="spm", resilience=policy)
        assert isinstance(detector.strategy, FallbackStrategy)
        assert detector.strategy.ladder == ("spm", "baseline")

    def test_unknown_rung_rejected(self, figure1):
        with pytest.raises(ExecutionError):
            FallbackStrategy(figure1, ladder=("pm", "turbo"))

    def test_empty_ladder_rejected(self, figure1):
        with pytest.raises(ExecutionError):
            FallbackStrategy(figure1, ladder=())

    def test_matrix_multiply_fault_degrades_serving_pm(self, figure1):
        """A fault while *serving* from PM (not building) also demotes."""
        policy = make_policy(retry_attempts=1)
        detector = OutlierDetector(figure1, strategy="pm", resilience=policy)
        assert detector.strategy.active_rung == "pm"
        # PM multiplies stored length-2 matrices only for longer paths.
        long_query = (
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.author.paper.venue TOP 3;"
        )
        with faultinject.inject(FaultRule(point="matrix_multiply", times=None)):
            with pytest.warns(DegradedResultWarning):
                result = detector.detect(long_query)
        assert result.degraded
        assert detector.strategy.active_rung != "pm"
        assert len(result) == 3

    def test_concurrent_failures_of_one_rung_demote_once(self, figure1):
        """Regression: two requests failing on the PM rung at once demoted
        twice, skipping SPM and blaming it for PM's error."""
        ladder = FallbackStrategy(figure1, policy=make_policy(retry_attempts=1))
        path = MetaPath.parse("author.paper.venue")
        expected = ladder.neighbor_matrix(path, [0, 1])  # builds the PM rung
        barrier = threading.Barrier(2, timeout=10.0)
        rules = (
            # Both requests stall inside the PM rung until both are there...
            FaultRule(point="matrix_multiply", times=2, delay_seconds=0.0),
            # ...then both fail.
            FaultRule(point="matrix_multiply", times=2, message="pm rung broke"),
        )
        with faultinject.inject(*rules) as injector:
            injector.sleep = lambda _seconds: barrier.wait()
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(ladder.neighbor_matrix, path, [0, 1])
                    for _ in range(2)
                ]
                answers = [future.result(timeout=30.0) for future in futures]
        assert ladder.active_rung == "spm"
        assert ladder.events == [("pm", "neighbor_matrix failed (pm rung broke)")]
        assert all((answer != expected).nnz == 0 for answer in answers)

    def test_demotion_under_thread_stress_demotes_once(self, figure1):
        """More threads than cores, switching every microsecond, all
        failing on the PM rung: still exactly one demotion, to SPM."""
        ladder = FallbackStrategy(figure1, policy=make_policy(retry_attempts=1))
        path = MetaPath.parse("author.paper.venue")
        expected = ladder.neighbor_matrix(path, [0, 1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with faultinject.inject(FaultRule(point="matrix_multiply", times=None)):
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [
                        pool.submit(ladder.neighbor_matrix, path, [0, 1])
                        for _ in range(64)
                    ]
                    answers = [future.result(timeout=30.0) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [rung for rung, _ in ladder.events] == ["pm"]
        assert ladder.active_rung == "spm"
        assert all((answer != expected).nnz == 0 for answer in answers)


# ----------------------------------------------------------------------
# Policy plumbing
# ----------------------------------------------------------------------
class TestResiliencePolicy:
    def test_defaults_are_permissive(self):
        policy = ResiliencePolicy()
        assert policy.deadline() is None
        assert policy.max_memory_bytes is None
        assert policy.allow_degraded and policy.allow_partial

    def test_deadline_built_from_timeout(self):
        policy = make_policy(timeout_seconds=5.0)
        deadline = policy.deadline()
        assert deadline is not None
        assert deadline.budget_seconds == 5.0

    def test_max_memory_mb_converts_to_bytes(self):
        assert make_policy(max_memory_mb=2.5).max_memory_bytes == 2_500_000

    def test_breakers_are_cached_per_key(self):
        policy = make_policy()
        assert policy.breaker("pm-index-build") is policy.breaker("pm-index-build")
        assert policy.breaker("pm-index-build") is not policy.breaker("spm-index-build")

    def test_detector_rejects_unknown_strategy_name(self, figure1):
        with pytest.raises(ExecutionError):
            OutlierDetector(figure1, strategy="warp", resilience=make_policy())


# ----------------------------------------------------------------------
# Fault injection harness
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_no_injector_means_noop(self):
        assert faultinject.active_injector() is None
        faultinject.check("index_build")  # does not raise

    def test_unknown_point_rejected(self):
        with pytest.raises(ExecutionError):
            FaultRule(point="warp_drive")

    def test_every_fault_point_has_a_seam_and_a_test(self):
        """The registry, the ``faultinject.check`` sites under ``src/`` and
        the points the suite injects name the same seams."""
        import repro

        def literals(root, pattern):
            found = set()
            for source in Path(root).rglob("*.py"):
                found.update(re.findall(pattern, source.read_text("utf-8")))
            return found

        seams = literals(
            Path(repro.__file__).parent, r'faultinject\.check\(\s*"([\w.]+)"'
        )
        tested = literals(Path(__file__).parents[1], r'\bpoint="([\w.]+)"')
        tested.discard("warp_drive")  # test_unknown_point_rejected's
        assert seams == set(faultinject.FAULT_POINTS)
        assert tested == set(faultinject.FAULT_POINTS)

    def test_bad_probability_rejected(self):
        with pytest.raises(ExecutionError):
            FaultRule(point="io", probability=1.5)

    def test_times_limits_firings(self):
        with faultinject.inject(FaultRule(point="io", times=2)) as injector:
            fired = 0
            for _ in range(5):
                try:
                    faultinject.check("io")
                except TransientFaultError:
                    fired += 1
        assert fired == 2
        assert injector.calls["io"] == 5
        assert injector.fired["io"] == 2

    def test_after_calls_delays_eligibility(self):
        rule = FaultRule(point="cache_read", after_calls=3, times=1)
        with faultinject.inject(rule) as injector:
            outcomes = []
            for _ in range(5):
                try:
                    faultinject.check("cache_read")
                    outcomes.append("ok")
                except TransientFaultError:
                    outcomes.append("fault")
        assert outcomes == ["ok", "ok", "ok", "fault", "ok"]
        assert injector.fired["cache_read"] == 1

    def test_probability_schedule_is_seed_deterministic(self):
        def run(seed):
            pattern = []
            rule = FaultRule(point="matrix_multiply", probability=0.5)
            with faultinject.inject(rule, seed=seed):
                for _ in range(20):
                    try:
                        faultinject.check("matrix_multiply")
                        pattern.append(0)
                    except TransientFaultError:
                        pattern.append(1)
            return pattern

        assert run(42) == run(42)
        assert run(42) != run(43)  # different seed, different schedule

    def test_custom_error_and_message(self):
        rule = FaultRule(point="io", error=ExecutionError, message="disk on fire")
        with faultinject.inject(rule):
            with pytest.raises(ExecutionError, match="disk on fire"):
                faultinject.check("io")

    def test_context_manager_deactivates_on_exit(self):
        with faultinject.inject(FaultRule(point="io")) as injector:
            assert faultinject.active_injector() is injector
        assert faultinject.active_injector() is None
        faultinject.check("io")  # quiet again

    def test_manual_activate_deactivate(self):
        injector = FaultInjector(rules=[FaultRule(point="io")])
        injector.activate()
        try:
            assert faultinject.active_injector() is injector
        finally:
            injector.deactivate()
        assert faultinject.active_injector() is None


class TestCacheReadFaults:
    def test_cache_read_fault_self_heals(self, figure1):
        """An injected cache-read fault drops the row and recomputes: the
        query still answers correctly, and the event is counted."""
        from repro.engine.caching import CachingStrategy

        strategy = CachingStrategy(BaselineStrategy(figure1))
        executor = QueryExecutor(strategy)
        clean = executor.execute(ZOE_QUERY)  # populate the cache
        rule = FaultRule(point="cache_read", times=1)
        with faultinject.inject(rule):
            healed = executor.execute(ZOE_QUERY)
        assert strategy.faulted_reads == 1
        assert [(e.name, e.score) for e in healed] == [
            (e.name, e.score) for e in clean
        ]


# ----------------------------------------------------------------------
# Execution-time TOP k validation (satellite)
# ----------------------------------------------------------------------
class TestTopKValidation:
    def _query_with_top_k(self, top_k):
        ast = parse_query(ZOE_QUERY)
        object.__setattr__(ast, "top_k", top_k)
        return ast

    def test_float_top_k_rejected_at_execution(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1))
        with pytest.raises(QuerySemanticError, match="TOP k"):
            executor.execute(self._query_with_top_k(2.5))

    def test_bool_top_k_rejected_at_execution(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1))
        with pytest.raises(QuerySemanticError, match="TOP k"):
            executor.execute(self._query_with_top_k(True))

    def test_zero_and_negative_top_k_rejected(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1))
        for bad in (0, -3):
            with pytest.raises(QuerySemanticError, match="positive"):
                executor.execute(self._query_with_top_k(bad))

    def test_valid_top_k_unaffected(self, figure1):
        executor = QueryExecutor(BaselineStrategy(figure1))
        assert len(executor.execute(self._query_with_top_k(2))) == 2
