"""Long-lived concurrent query service over the outlier-detection engine.

The batch library answers one query per :class:`~repro.OutlierDetector`;
this package turns it into a *serving* system — the unit of work the
ROADMAP's production north star actually needs:

* :class:`~repro.service.handle.EngineHandle` — load a network and build
  its PM/SPM index **once**, share the immutable matrices across a worker
  pool (per-request stats and deadlines stay thread-local).
* :class:`~repro.service.admission.AdmissionController` — a bounded
  in-flight budget: beyond ``workers + queue_depth`` requests, submissions
  shed with a typed :class:`~repro.exceptions.ServiceOverloadedError` and a
  retry-after hint, never unbounded queueing.
* :class:`~repro.service.cache.ResultCache` — whole-result memoization
  keyed by the *canonical* query form (reusing the query formatter), with
  TTL and network-version invalidation.
* :class:`~repro.service.service.QueryService` — the programmatic API:
  ``submit()`` futures, ``execute()`` sync calls, ``stats()`` snapshots.
* :mod:`repro.service.http` — a JSON/HTTP frontend on the stdlib HTTP
  server, its bodies encoded by ``orjson`` (the serving layer's one
  dependency beyond numpy/scipy), exposed on the CLI as ``repro serve``.
* :mod:`repro.service.adaptive` — workload-adaptive online indexing: a
  :class:`~repro.service.adaptive.WorkloadRecorder` logs admitted queries
  and a background :class:`~repro.service.adaptive.Reindexer` re-plans the
  SPM index around observed hot vertices, hot-swapping it atomically (with
  a shared length-2 sub-path product cache accelerating all strategies).

Quickstart
----------
>>> from repro.datagen.fixtures import figure1_network
>>> from repro.service import QueryService, ServiceConfig
>>> with QueryService.from_network(
...     figure1_network(), ServiceConfig(workers=2)
... ) as service:
...     result = service.execute(
...         'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
...         'JUDGED BY author.paper.venue TOP 3;')
>>> len(result) <= 3
True
"""

from repro.service.adaptive import Reindexer, WorkloadRecorder
from repro.service.admission import AdmissionController
from repro.service.backends import ProcessBackend, ThreadBackend, make_backend
from repro.service.cache import ResultCache, canonical_query_key
from repro.service.keys import extract_query_text
from repro.service.config import ServiceConfig, auto_worker_count
from repro.service.handle import EngineHandle
from repro.service.http import ServiceHTTPServer, make_server
from repro.service.service import QueryService

__all__ = [
    "AdmissionController",
    "EngineHandle",
    "ProcessBackend",
    "QueryService",
    "Reindexer",
    "ResultCache",
    "ServiceConfig",
    "ServiceHTTPServer",
    "ThreadBackend",
    "WorkloadRecorder",
    "auto_worker_count",
    "canonical_query_key",
    "extract_query_text",
    "make_backend",
    "make_server",
]
