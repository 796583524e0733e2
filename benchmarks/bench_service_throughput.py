"""Service throughput — worker-pool scaling, cache speedup, overload bursts.

The concurrent query service (:mod:`repro.service`) exists to amortize one
shared PM index across many callers.  This harness demonstrates the three
properties the design promises:

1. **Scaling** — a pool of 8 workers sustains ≥3x the qps of 1 worker on a
   workload of distinct queries.  Pure in-process scoring is GIL-bound, so
   the benchmark models the deployment the service layer targets: a measure
   whose scoring includes a short *remote index-shard fetch* (a sleep — it
   releases the GIL exactly as socket I/O would), on top of the real NetOut
   arithmetic.
2. **Caching** — a repeated workload is answered from the canonical-form
   result cache at a large multiple of cold qps.
3. **Bounded overload** — a burst far beyond ``workers + queue_depth``
   sheds the excess with typed ``ServiceOverloadedError`` (retry hints
   attached); every admitted request still completes correctly, and nothing
   hangs.
4. **Backend scaling** — on a CPU-bound (GIL-serialized) workload the
   process backend's qps scales with workers where the thread backend's
   cannot, with byte-identical results; the curve lands in
   ``benchmarks/out/BENCH_service.json``.

Quick mode: set ``BENCH_SMOKE=1`` to shrink the backend-scaling sweep
(smaller workload, 1-and-2-worker points, relaxed floor); CI's bench-smoke
job uses it to guard the thread/process parity and scaling direction on
every push.
"""

import json
import os
import time
from concurrent.futures import wait

from repro.core.measures import NetOutMeasure
from repro.datagen.workloads import generate_query_set
from repro.engine.index import build_pm_index
from repro.exceptions import ServiceOverloadedError
from repro.query.templates import TEMPLATE_Q1
from repro.service import (
    EngineHandle,
    QueryService,
    ServiceConfig,
    canonical_query_key,
)
from repro.service.simload import GilBoundNetOutMeasure

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: Simulated per-score remote fetch; sleep releases the GIL like socket I/O.
REMOTE_FETCH_SECONDS = 0.008
WORKLOAD_SIZE = 48


class RemoteNetOutMeasure(NetOutMeasure):
    """NetOut with each scoring call preceded by a remote index fetch."""

    name = "netout-remote"

    def __init__(self, delay_seconds: float = REMOTE_FETCH_SECONDS) -> None:
        super().__init__()
        self.delay_seconds = delay_seconds

    def score(self, phi_candidates, phi_reference):
        time.sleep(self.delay_seconds)
        return super().score(phi_candidates, phi_reference)


def _distinct_workload(network, size):
    """``size`` distinct, executable queries (unique canonical forms)."""
    from repro.engine.detector import OutlierDetector

    candidates = generate_query_set(network, TEMPLATE_Q1, size * 2, seed=21)
    batch = OutlierDetector(network, strategy="baseline").detect_many(
        list(candidates)
    )
    seen, workload = set(), []
    for position, query in enumerate(candidates):
        if position in batch.errors:
            continue
        key = canonical_query_key(query)
        if key in seen:
            continue
        seen.add(key)
        workload.append(query)
        if len(workload) == size:
            break
    assert len(workload) >= size // 2, "workload generator starved"
    return workload


def _drive(service, workload):
    """Submit the whole workload, wait for every future; returns qps."""
    start = time.perf_counter()
    futures = [service.submit(query) for query in workload]
    wait(futures, timeout=120.0)
    elapsed = time.perf_counter() - start
    for future in futures:
        future.result(timeout=0)  # surface any failure loudly
    return len(futures) / elapsed


def test_worker_pool_scaling(benchmark, bench_network, report):
    """Acceptance: >= 3x qps at 8 workers vs 1 on distinct queries."""
    workload = _distinct_workload(bench_network, WORKLOAD_SIZE)
    pm_index = build_pm_index(bench_network)

    def sweep():
        qps = {}
        for workers in (1, 2, 4, 8):
            handle = EngineHandle(
                bench_network,
                strategy="pm",
                index=pm_index,
                measure=RemoteNetOutMeasure(),
                collect_stats=False,
            )
            config = ServiceConfig(
                workers=workers,
                queue_depth=len(workload),
                cache_max_entries=0,  # measure execution, not memoization
            )
            with QueryService(handle, config) as service:
                qps[workers] = _drive(service, workload)
        return qps

    qps = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        f"worker-pool scaling over {WORKLOAD_SIZE} distinct Q1 queries",
        f"(netout + {REMOTE_FETCH_SECONDS * 1e3:.0f} ms simulated remote "
        "index fetch per scoring call)",
        "",
        f"{'workers':>8} {'qps':>8} {'speedup':>8}",
    ]
    for workers in sorted(qps):
        lines.append(
            f"{workers:>8} {qps[workers]:>8.1f} {qps[workers] / qps[1]:>7.2f}x"
        )
    speedup = qps[8] / qps[1]
    lines += ["", f"8-worker speedup: {speedup:.2f}x (acceptance floor: 3x)"]
    report("service_throughput_scaling", "\n".join(lines))

    assert speedup >= 3.0, f"8 workers only {speedup:.2f}x over 1 worker"


#: Backend-scaling sweep parameters.  The GIL-emulating measure makes the
#: workload architecturally CPU-bound (see repro.service.simload): threads
#: serialize on a per-process lock exactly as they would on the GIL, so the
#: curve is deterministic on any host, including 1-core CI runners.
SCALING_WORKERS = (1, 2) if SMOKE else (1, 2, 4, 8)
SCALING_WORKLOAD = 12 if SMOKE else 48
SCALING_COMPUTE_SECONDS = 0.02
#: Acceptance floor for process-over-thread qps at the top worker count.
SCALING_FLOOR = 1.4 if SMOKE else 3.0


def test_backend_scaling(benchmark, bench_network, report, json_report):
    """Acceptance: >= 3x qps for the process backend over the thread
    backend at 8 workers on a CPU-bound mix, with byte-identical results."""
    workload = _distinct_workload(bench_network, SCALING_WORKLOAD)
    pm_index = build_pm_index(bench_network)
    measure = GilBoundNetOutMeasure(compute_seconds=SCALING_COMPUTE_SECONDS)

    def run(backend, workers, collect=False):
        handle = EngineHandle(
            bench_network,
            strategy="pm",
            index=pm_index,
            measure=measure,
            collect_stats=False,
        )
        config = ServiceConfig(
            workers=workers,
            backend=backend,
            queue_depth=len(workload),
            cache_max_entries=0,  # measure execution, not memoization
        )
        with QueryService(handle, config) as service:
            if collect:
                results = service.execute_many(workload, timeout=300.0)
                payload = [result.to_dict() for result in results]
            else:
                payload = None
            qps = _drive(service, workload)
        return qps, payload

    def sweep():
        curve = {"thread": {}, "process": {}}
        wire = {}
        for backend in ("thread", "process"):
            for workers in SCALING_WORKERS:
                collect = workers == SCALING_WORKERS[-1]
                qps, payload = run(backend, workers, collect=collect)
                curve[backend][workers] = qps
                if collect:
                    wire[backend] = payload
        return curve, wire

    curve, wire = benchmark.pedantic(sweep, rounds=1, iterations=1)

    top = SCALING_WORKERS[-1]
    speedup = curve["process"][top] / curve["thread"][top]
    identical = json.dumps(wire["thread"], sort_keys=True) == json.dumps(
        wire["process"], sort_keys=True
    )

    lines = [
        f"thread vs process backend over {len(workload)} distinct Q1 "
        "queries",
        f"(netout + {SCALING_COMPUTE_SECONDS * 1e3:.0f} ms GIL-emulated "
        "interpreter work per scoring call)",
        "",
        f"{'workers':>8} {'thread qps':>11} {'process qps':>12} {'ratio':>7}",
    ]
    for workers in SCALING_WORKERS:
        ratio = curve["process"][workers] / curve["thread"][workers]
        lines.append(
            f"{workers:>8} {curve['thread'][workers]:>11.1f} "
            f"{curve['process'][workers]:>12.1f} {ratio:>6.2f}x"
        )
    lines += [
        "",
        f"process/thread at {top} workers: {speedup:.2f}x "
        f"(floor: {SCALING_FLOOR}x)",
        f"results byte-identical across backends: {identical}",
    ]
    report("service_backend_scaling", "\n".join(lines))
    json_report(
        "BENCH_service",
        {
            "workload_size": len(workload),
            "compute_seconds": SCALING_COMPUTE_SECONDS,
            "smoke": SMOKE,
            "qps": {
                backend: {str(workers): qps for workers, qps in points.items()}
                for backend, points in curve.items()
            },
            "speedup_process_over_thread_at_top": speedup,
            "top_workers": top,
            "byte_identical": identical,
        },
    )

    assert identical, "backends returned different result payloads"
    assert speedup >= SCALING_FLOOR, (
        f"process backend only {speedup:.2f}x over thread at {top} workers"
    )


def test_result_cache_speedup(benchmark, bench_network, report):
    """A repeated workload is served from the result cache at >> cold qps."""
    workload = _distinct_workload(bench_network, WORKLOAD_SIZE // 2)
    handle = EngineHandle(
        bench_network,
        strategy="pm",
        measure=RemoteNetOutMeasure(),
        collect_stats=False,
    )
    config = ServiceConfig(
        workers=4, queue_depth=len(workload), cache_ttl_seconds=None
    )

    def run():
        with QueryService(handle, config) as service:
            cold = _drive(service, workload)
            warm = _drive(service, workload)
            snapshot = service.stats()["cache"]
        return cold, warm, snapshot

    cold, warm, snapshot = benchmark.pedantic(run, rounds=1, iterations=1)

    report(
        "service_throughput_cache",
        "\n".join(
            [
                f"result cache over {len(workload)} repeated Q1 queries",
                "",
                f"{'pass':>6} {'qps':>10}",
                f"{'cold':>6} {cold:>10.1f}",
                f"{'warm':>6} {warm:>10.1f}",
                "",
                f"warm/cold: {warm / cold:.1f}x   "
                f"cache hit rate: {snapshot['hit_rate']:.2f}",
            ]
        ),
    )
    assert snapshot["hits"] >= len(workload)
    assert warm > cold * 3


def test_overload_burst_sheds_typed(benchmark, bench_network, report):
    """Acceptance: a full-queue burst yields typed errors, no hangs, and
    correct results for everything admitted."""
    workload = _distinct_workload(bench_network, 24)
    handle = EngineHandle(
        bench_network,
        strategy="pm",
        measure=RemoteNetOutMeasure(delay_seconds=0.02),
        collect_stats=False,
    )
    reference = {
        canonical_query_key(query): handle.execute(query).names()
        for query in workload
    }
    config = ServiceConfig(workers=2, queue_depth=2, cache_max_entries=0)

    def burst():
        admitted, shed = [], 0
        with QueryService(handle, config) as service:
            for query in workload:
                try:
                    admitted.append((query, service.submit(query)))
                except ServiceOverloadedError as error:
                    assert error.retry_after_seconds > 0
                    shed += 1
            done, not_done = wait(
                [future for _, future in admitted], timeout=60.0
            )
        assert not not_done, "burst left hanging futures"
        wrong = [
            query
            for query, future in admitted
            if future.result().names() != reference[canonical_query_key(query)]
        ]
        return len(admitted), shed, wrong

    admitted, shed, wrong = benchmark.pedantic(burst, rounds=1, iterations=1)

    report(
        "service_throughput_burst",
        "\n".join(
            [
                f"burst of {len(workload)} queries into capacity "
                f"{config.capacity} (2 workers + 2 queued)",
                "",
                f"admitted: {admitted}   shed (typed 429s): {shed}",
                "admitted results all match the sequential reference: "
                f"{not wrong}",
            ]
        ),
    )
    assert shed > 0, "burst never exceeded capacity"
    assert admitted + shed == len(workload)
    assert wrong == []
