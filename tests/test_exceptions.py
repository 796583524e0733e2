"""Tests for :mod:`repro.exceptions` — the full hierarchy, via real raises.

Every public exception class is provoked through an actual library code
path (not constructed ad hoc) and shown to be catchable as
:class:`~repro.exceptions.ReproError`, so API-boundary ``except ReproError``
handlers provably cover the whole library.
"""

import pytest

import repro.exceptions as exceptions_module
from repro.engine.resilience import CircuitBreaker, ResourceGuard
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    DegradedResultWarning,
    ExecutionError,
    InexactCountError,
    MeasureError,
    MetaPathError,
    NetworkError,
    QueryError,
    QuerySemanticError,
    QuerySyntaxError,
    ReproError,
    ResourceLimitError,
    SchemaError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    TransientFaultError,
    UnsupportedSchemaError,
    VertexNotFoundError,
    WorkerCrashedError,
)
from repro.hin.network import HeterogeneousInformationNetwork
from repro.hin.schema import NetworkSchema, bibliographic_schema


class FailClock:
    """A clock whose every read jumps far past any budget."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 100.0
        return self.now


def raise_schema_error():
    NetworkSchema(["author"]).add_edge_type("author", "ghost_type")


def raise_network_error():
    network = HeterogeneousInformationNetwork(bibliographic_schema())
    network.num_vertices("ghost_type")


def raise_vertex_not_found():
    network = HeterogeneousInformationNetwork(bibliographic_schema())
    network.find_vertex("author", "Nobody")


def raise_metapath_error():
    from repro.metapath.metapath import MetaPath

    MetaPath.parse("author.venue").validate(bibliographic_schema())


def raise_query_syntax_error():
    from repro.query.parser import parse_query

    parse_query("FIND gibberish")


def raise_query_semantic_error():
    from repro.query.parser import parse_query
    from repro.query.semantics import validate_query

    ast = parse_query(
        'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
        "JUDGED BY venue.paper.term TOP 3;"
    )
    validate_query(bibliographic_schema(), ast)


def raise_execution_error():
    from repro.datagen.fixtures import figure1_network
    from repro.engine.executor import QueryExecutor
    from repro.engine.strategies import BaselineStrategy

    QueryExecutor(BaselineStrategy(figure1_network())).execute(
        'FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) > 99 '
        "JUDGED BY author.paper.venue TOP 3;"
    )


def raise_measure_error():
    from repro.core.measures import get_measure

    get_measure("no_such_measure")


def raise_deadline_exceeded():
    from repro.engine.deadline import Deadline

    Deadline(1.0, clock=FailClock()).check("test")


def raise_resource_limit():
    ResourceGuard(max_memory_bytes=1).check_estimate(10**9, "a giant build")


def raise_inexact_count():
    from repro.engine.strategies import BaselineStrategy
    from repro.metapath.metapath import MetaPath

    schema = NetworkSchema(["author", "paper"])
    schema.add_edge_type("author", "paper")
    network = HeterogeneousInformationNetwork(schema)
    author = network.add_vertex("author", "a")
    network.add_edge(author, network.add_vertex("paper", "p"), float(2**53))
    BaselineStrategy(network).neighbor_row(MetaPath.parse("author.paper"), 0)


def raise_circuit_open():
    breaker = CircuitBreaker(failure_threshold=1, clock=lambda: 0.0)
    try:
        breaker.call(raise_transient_fault)
    except TransientFaultError:
        pass
    breaker.call(lambda: "never reached")


def raise_transient_fault():
    from repro import faultinject

    with faultinject.inject(faultinject.FaultRule(point="io")):
        faultinject.check("io")


def raise_service_overloaded():
    from repro.service.admission import AdmissionController

    controller = AdmissionController(capacity=1)
    controller.admit()
    controller.admit()  # over budget: shed


def raise_service_closed():
    from repro.datagen.fixtures import figure1_network
    from repro.service import QueryService, ServiceConfig

    service = QueryService.from_network(
        figure1_network(), ServiceConfig(workers=1)
    )
    service.close()
    service.submit(
        'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
        "JUDGED BY author.paper.venue TOP 3;"
    )


def raise_worker_crashed():
    # Through the process backend's wire-form rebuild: a worker death report
    # crossing the process boundary comes back as the typed error.  (The
    # end-to-end kill-a-live-worker path is covered in
    # tests/service/test_process_backend.py.)
    from repro.service.backends import _rebuild_error

    raise _rebuild_error(
        "WorkerCrashedError", "worker process died twice", {}
    )


def raise_unsupported_schema():
    # Through the zoo contract boundary: a detector fitted on the security
    # network is asked to score a bibliographic scenario, whose feature
    # meta-path the security schema cannot validate.
    from repro.datagen.security import SecurityNetworkGenerator
    from repro.metapath.metapath import MetaPath
    from repro.zoo import ZooQuery, make_detector

    network = SecurityNetworkGenerator(
        num_users=3, num_hosts=4, logins_per_user=2, alerts_per_host=1, seed=0
    ).generate().network
    detector = make_detector("lof").fit(network)
    query = ZooQuery(
        member_type="author",
        candidate_indices=(0,),
        candidate_names=("Ann",),
        feature_path=MetaPath.parse("author.paper.venue"),
        candidates_expr="author",
    )
    detector.decision_scores(query)


RAISERS = {
    SchemaError: raise_schema_error,
    NetworkError: raise_network_error,
    VertexNotFoundError: raise_vertex_not_found,
    MetaPathError: raise_metapath_error,
    QuerySyntaxError: raise_query_syntax_error,
    QuerySemanticError: raise_query_semantic_error,
    ExecutionError: raise_execution_error,
    MeasureError: raise_measure_error,
    UnsupportedSchemaError: raise_unsupported_schema,
    DeadlineExceededError: raise_deadline_exceeded,
    ResourceLimitError: raise_resource_limit,
    InexactCountError: raise_inexact_count,
    CircuitOpenError: raise_circuit_open,
    TransientFaultError: raise_transient_fault,
    ServiceOverloadedError: raise_service_overloaded,
    ServiceClosedError: raise_service_closed,
    WorkerCrashedError: raise_worker_crashed,
}


class TestHierarchyCoverage:
    def test_every_public_exception_has_a_raiser(self):
        """The table above stays in sync with ``repro.exceptions.__all__``.

        ``ReproError``, ``QueryError`` and ``ServiceError`` are abstract
        groupings (their subclasses are raised instead);
        ``DegradedResultWarning`` is a warning, covered separately.
        """
        covered = {cls.__name__ for cls in RAISERS}
        covered |= {
            "ReproError",
            "QueryError",
            "ServiceError",
            "DegradedResultWarning",
        }
        assert covered == set(exceptions_module.__all__)

    @pytest.mark.parametrize(
        "exc_class", list(RAISERS), ids=lambda cls: cls.__name__
    )
    def test_raised_by_real_code_path(self, exc_class):
        with pytest.raises(exc_class):
            RAISERS[exc_class]()

    @pytest.mark.parametrize(
        "exc_class", list(RAISERS), ids=lambda cls: cls.__name__
    )
    def test_catchable_as_repro_error(self, exc_class):
        with pytest.raises(ReproError):
            RAISERS[exc_class]()

    def test_query_errors_share_the_query_base(self):
        for raiser in (raise_query_syntax_error, raise_query_semantic_error):
            with pytest.raises(QueryError):
                raiser()

    def test_service_errors_share_the_service_base(self):
        """Service failures are operational, not executional: they subclass
        ``ServiceError`` directly under ``ReproError``, so engine-level
        ``except ExecutionError`` handlers do not swallow overload sheds."""
        for cls in (
            ServiceOverloadedError,
            ServiceClosedError,
        ):
            assert issubclass(cls, ServiceError)
            assert not issubclass(cls, ExecutionError)
            with pytest.raises(ServiceError):
                RAISERS[cls]()

    def test_overload_error_carries_retry_hint(self):
        with pytest.raises(ServiceOverloadedError) as excinfo:
            raise_service_overloaded()
        assert excinfo.value.retry_after_seconds > 0
        assert excinfo.value.capacity == 1
        assert excinfo.value.queued == 1

    def test_resilience_errors_are_execution_errors(self):
        """The resilience subtree hangs off ExecutionError, so pre-existing
        ``except ExecutionError`` call sites keep catching everything."""
        for cls in (
            DeadlineExceededError,
            InexactCountError,
            ResourceLimitError,
            CircuitOpenError,
            TransientFaultError,
        ):
            assert issubclass(cls, ExecutionError)
            with pytest.raises(ExecutionError):
                RAISERS[cls]()

    def test_degraded_result_warning_is_a_warning_not_an_error(self):
        assert issubclass(DegradedResultWarning, UserWarning)
        assert not issubclass(DegradedResultWarning, ReproError)
        with pytest.warns(DegradedResultWarning):
            import warnings

            warnings.warn(DegradedResultWarning("served from the baseline rung"))


class TestErrorPayloads:
    def test_query_syntax_error_carries_position(self):
        with pytest.raises(QuerySyntaxError) as excinfo:
            raise_query_syntax_error()
        assert excinfo.value.position is not None

    def test_deadline_error_carries_budget_and_elapsed(self):
        with pytest.raises(DeadlineExceededError) as excinfo:
            raise_deadline_exceeded()
        assert excinfo.value.budget_seconds == 1.0
        assert excinfo.value.elapsed_seconds > 1.0

    def test_resource_limit_error_carries_sizes(self):
        with pytest.raises(ResourceLimitError) as excinfo:
            raise_resource_limit()
        assert excinfo.value.estimated_bytes == 10**9
        assert excinfo.value.limit_bytes == 1

    def test_unsupported_schema_error_carries_context(self):
        """The zoo's schema rejection names the detector and the mismatch,
        and stays catchable as ``MeasureError`` (scoring-layer failures)."""
        with pytest.raises(UnsupportedSchemaError) as excinfo:
            raise_unsupported_schema()
        assert excinfo.value.detector == "lof"
        assert excinfo.value.schema_detail
        assert isinstance(excinfo.value, MeasureError)


class TestVertexNotFoundDuality:
    """``VertexNotFoundError`` is both a ``NetworkError`` and a ``KeyError``
    (mapping-style lookups), without KeyError's repr-quoting of messages."""

    def _caught(self):
        with pytest.raises(VertexNotFoundError) as excinfo:
            raise_vertex_not_found()
        return excinfo.value

    def test_is_a_key_error(self):
        error = self._caught()
        assert isinstance(error, KeyError)
        assert isinstance(error, NetworkError)
        assert isinstance(error, ReproError)

    def test_catchable_as_key_error(self):
        with pytest.raises(KeyError):
            raise_vertex_not_found()

    def test_str_is_the_message_not_a_repr(self):
        """Plain KeyError str()s to the repr of its argument (quoted);
        VertexNotFoundError overrides that to return the message itself."""
        error = self._caught()
        assert str(error) == error.message
        assert not str(error).startswith(("'", '"'))
        assert "Nobody" in str(error)

    def test_unknown_type_and_unknown_name_both_raise(self):
        network = HeterogeneousInformationNetwork(bibliographic_schema())
        with pytest.raises(VertexNotFoundError, match="is not in the schema"):
            network.find_vertex("ghost_type", "anything")
        with pytest.raises(VertexNotFoundError, match="no author vertex named"):
            network.find_vertex("author", "Nobody")
