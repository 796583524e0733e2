"""Query execution engine (paper Section 6).

Pipeline: parse → validate → evaluate candidate/reference set expressions →
materialize neighbor vectors for each feature meta-path → score with the
selected measure → rank.

Three interchangeable materialization strategies implement the paper's
efficiency comparison.  They share one materialization routine and differ
only in which vertices their length-2 index covers:

* :class:`~repro.engine.strategies.BaselineStrategy` — an empty index:
  every vector is a product over the adjacency matrices (§6.1).
* :class:`~repro.engine.strategies.PMStrategy` — all length-2 meta-path
  matrices pre-materialized (§6.2, "Pre-materialization").
* :class:`~repro.engine.strategies.SPMStrategy` — length-2 rows stored only
  for vertices frequent in an initialization query workload (§6.2,
  "Selective pre-materialization").

:class:`~repro.engine.detector.OutlierDetector` is the user-facing facade.
"""

from repro.engine.stats import (
    PHASE_INDEXED,
    PHASE_NOT_INDEXED,
    PHASE_SCORING,
    ExecutionStats,
)
from repro.engine.index import MetaPathIndex, build_pm_index, build_spm_index
from repro.engine.strategies import (
    BaselineStrategy,
    MaterializationStrategy,
    PMStrategy,
    SPMStrategy,
    make_strategy,
)
from repro.engine.evaluator import SetEvaluator
from repro.engine.executor import BatchExecution, QueryExecutor
from repro.engine.resilience import (
    CircuitBreaker,
    Deadline,
    DEGRADATION_LADDER,
    FallbackStrategy,
    ResiliencePolicy,
    ResourceGuard,
    check_deadline,
    current_deadline,
    deadline_scope,
    estimate_pm_index_bytes,
    estimate_spm_index_bytes,
    retry_with_backoff,
)
from repro.engine.optimizer import WorkloadAnalyzer, select_frequent_vertices
from repro.engine.plan import QueryPlan, explain
from repro.engine.advisor import QueryAdvisor, Suggestion, interestingness
from repro.engine.caching import CachingStrategy
from repro.engine.index_io import load_index, save_index
from repro.engine.progressive import ProgressiveQueryExecutor, ProgressiveSnapshot
from repro.engine.detector import OutlierDetector

__all__ = [
    "ExecutionStats",
    "PHASE_NOT_INDEXED",
    "PHASE_INDEXED",
    "PHASE_SCORING",
    "MetaPathIndex",
    "build_pm_index",
    "build_spm_index",
    "MaterializationStrategy",
    "BaselineStrategy",
    "PMStrategy",
    "SPMStrategy",
    "make_strategy",
    "SetEvaluator",
    "QueryExecutor",
    "BatchExecution",
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "check_deadline",
    "retry_with_backoff",
    "CircuitBreaker",
    "ResourceGuard",
    "ResiliencePolicy",
    "FallbackStrategy",
    "DEGRADATION_LADDER",
    "estimate_pm_index_bytes",
    "estimate_spm_index_bytes",
    "WorkloadAnalyzer",
    "select_frequent_vertices",
    "QueryPlan",
    "explain",
    "QueryAdvisor",
    "Suggestion",
    "interestingness",
    "CachingStrategy",
    "save_index",
    "load_index",
    "ProgressiveQueryExecutor",
    "ProgressiveSnapshot",
    "OutlierDetector",
]
