"""One workload, one process: set-up, verification, timed passes, traced cycle.

The server and the single closed-loop client share this process (the
server on its own thread), so exactly one request is in flight and no more
threads are runnable than the box has cores.  Order of a run:

1. ``sizes.setups`` fresh set-ups, each torn down before the next; the last
   one is kept and served (``setup_s`` is their calibrated median).
2. One untimed verification cycle over the distinct requests — every
   answer is compared with the oracle's — which also warms the stack.
3. Untraced: ``sizes.passes`` timed passes of a fixed length each.
   Traced: one count-based cycle with spans, between two untraced ones.

The oracle's answers come in from outside (``oracle.py`` computes them in
a process of its own): nothing in this process but the serving stack, the
client and the harness's own lists may add to its peak RSS.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from calibrate import CalibrationKernel, calibrated
from oracle import answer_digest
from trace import SPAN_NAMES, Tracer, install, self_times
from workloads import OUT_DIR, Request, Sizes, Workload, distinct_requests, generate_requests

__all__ = ["run_workload", "verify_answer", "percentile"]

#: A request that waited (wall minus CPU) longer than this was stalled by a
#: timer, not by work: Nagle + delayed ACK hold a reply for ~40 ms.
STALL_MS = 20.0
#: The calibration kernel runs once after every this many seconds of
#: requests: a ~2 ms kernel per 100 ms is ~2 % overhead.
KERNEL_INTERVAL_SECONDS = 0.1
#: Requests of a traced run's cycle over a session that keeps its cache
#: (three cycles of ~40 ms stalls each must fit an untraced run's length).
TRACE_SESSION_REQUESTS = 150
SETUP_KERNEL_RUNS = 9
SETUP_STEPS = ("load_json", "engine_build", "http_ready")


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of ``values``."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


# ----------------------------------------------------------------------
# The serving stack
# ----------------------------------------------------------------------
@dataclass
class Stack:
    """One served deployment: service, HTTP server and its thread."""

    service: object
    server: object
    thread: threading.Thread

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.service.close()


def _clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _serve(service) -> Stack:
    """Bind the HTTP frontend, start its thread, wait for ``/healthz`` 200."""
    from repro.service import make_server

    server = make_server(service)
    # The poll interval only bounds how long shutdown() waits; a ready
    # socket wakes the loop at once either way.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    stack = Stack(service, server, thread)
    connection = http.client.HTTPConnection("127.0.0.1", stack.port)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"/healthz answered {response.status}")
    finally:
        connection.close()
    return stack


def set_up(workload: Workload, sizes: Sizes, kernel: CalibrationKernel):
    """Load, build, serve — each step calibrated; returns ``(stack, seconds)``.

    ``seconds`` maps ``load_json`` / ``engine_build`` / ``http_ready`` to
    calibrated seconds.  A 9-kernel median is taken before, between and
    after the three steps; each step uses the mean of its two neighbours.
    """
    from repro.hin.io import load_json
    from repro.service import QueryService, ServiceConfig

    kernels = [kernel.median_ms(SETUP_KERNEL_RUNS)]
    raw: list[tuple[float, float]] = []

    def measured(step):
        wall0, cpu0 = _clocks()
        result = step()
        wall1, cpu1 = _clocks()
        raw.append((wall1 - wall0, cpu1 - cpu0))
        kernels.append(kernel.median_ms(SETUP_KERNEL_RUNS))
        return result

    network = measured(lambda: load_json(sizes.corpus_path))
    config = ServiceConfig(workers=1, backend="thread", **workload.config)
    service = measured(
        lambda: QueryService.from_network(network, config, strategy=workload.strategy)
    )
    stack = measured(lambda: _serve(service))
    seconds = {
        step: calibrated(wall, cpu, (kernels[position] + kernels[position + 1]) / 2)
        for position, (step, (wall, cpu)) in enumerate(zip(SETUP_STEPS, raw))
    }
    return stack, seconds


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
class Client:
    """A closed-loop ``http.client`` caller: fresh connections or one session."""

    def __init__(self, port: int, *, keep_alive: bool, tracer: Tracer | None = None) -> None:
        self._port = port
        self._keep_alive = keep_alive
        self._session: http.client.HTTPConnection | None = None
        self._span = tracer.span if tracer is not None else (lambda name: nullcontext())

    def post(self, body: bytes) -> tuple[int, bytes]:
        """``POST /query``; returns the status and the undecoded body."""
        with self._span("client.request"):
            connection = self._session
            with self._span("client.connect"):
                if connection is None:
                    connection = http.client.HTTPConnection("127.0.0.1", self._port)
                    connection.connect()
                    if self._keep_alive:
                        self._session = connection
            try:
                with self._span("client.send"):
                    connection.request(
                        "POST",
                        "/query",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                with self._span("client.receive"):
                    response = connection.getresponse()
                    return response.status, response.read()
            except (OSError, http.client.HTTPException):
                self.close()  # a broken session must not be reused
                raise
            finally:
                if not self._keep_alive:
                    connection.close()

    def close(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def verify_answer(status: int, payload: bytes, expected: str) -> bool:
    """True when a reply is a 200 whose ``result`` has the digest ``expected``."""
    if status != 200:
        return False
    try:
        return answer_digest(json.loads(payload)["result"]) == expected
    except (ValueError, KeyError, TypeError):
        return False


def _verification_cycle(
    stack: Stack, workload: Workload, distinct: list[Request], answers: list[str]
) -> int:
    """Send every distinct request once; returns how many answers were wrong."""
    client = Client(stack.port, keep_alive=workload.keep_alive)
    failed = 0
    try:
        for request, expected in zip(distinct, answers):
            try:
                status, payload = client.post(request.body)
            except (OSError, http.client.HTTPException):
                failed += 1
                continue
            if not verify_answer(status, payload, expected):
                failed += 1
    finally:
        client.close()
    return failed


# ----------------------------------------------------------------------
# Measured cycles
# ----------------------------------------------------------------------
@dataclass
class Samples:
    """Per-request measurements of one or more measured cycles."""

    wall_ms: list[float] = field(default_factory=list)
    wait_ms: list[float] = field(default_factory=list)
    cal_ms: list[float] = field(default_factory=list)
    kernel_ms: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.wall_ms) + self.failed


class Driver:
    """Cycles a request list through the client, calibrating as it goes."""

    def __init__(
        self,
        stack: Stack,
        workload: Workload,
        requests: list[Request],
        kernel: CalibrationKernel,
        tracer: Tracer | None = None,
    ) -> None:
        self._stack = stack
        self._workload = workload
        self._requests = requests
        self._kernel = kernel
        self._tracer = tracer
        self._client = Client(stack.port, keep_alive=workload.keep_alive, tracer=tracer)
        self._cursor = 0
        self.samples = Samples()

    def _fresh_caches(self) -> None:
        gc.collect()
        if not self._workload.keep_cache:
            self._stack.service.invalidate_cache()

    def run(self, *, seconds: float | None = None, count: int | None = None) -> None:
        """Send requests for ``seconds`` (a timed pass) or ``count`` of them.

        A timed pass cycles the list from where the previous one stopped; a
        counted cycle starts at the head of the list.  The
        kernel runs once :data:`KERNEL_INTERVAL_SECONDS` of requests have
        passed since its last run; a chunk's requests are calibrated by
        the median of the two kernel runs on either side of it (single
        runs jitter by ~10 % after a large request; the machine's speed
        changes over seconds).
        """
        if count is not None:
            self._cursor = 0
        self._fresh_caches()
        kernels = [self._kernel.run_ms()]
        chunks: list[list[tuple[float, float]]] = [[]]
        started = chunk_started = time.perf_counter()
        sent = 0
        while True:
            now = time.perf_counter()
            finished = now - started >= seconds if seconds is not None else sent >= count
            if chunks[-1] and (
                finished or now - chunk_started >= KERNEL_INTERVAL_SECONDS
            ):
                kernels.append(self._kernel.run_ms())
                chunks.append([])
                chunk_started = time.perf_counter()
            if finished:
                break
            if self._cursor == len(self._requests):
                self._cursor = 0
                self._fresh_caches()
            request = self._requests[self._cursor]
            self._cursor += 1
            if self._tracer is not None:
                self._tracer.request_id = sent
            sent += 1
            wall0, cpu0 = _clocks()
            try:
                status, _ = self._client.post(request.body)
            except (OSError, http.client.HTTPException):
                status = 0
            wall1, cpu1 = _clocks()
            if status == 200:
                chunks[-1].append((wall1 - wall0, cpu1 - cpu0))
            else:
                self.samples.failed += 1

        samples = self.samples
        samples.kernel_ms.extend(kernels)
        for position, chunk in enumerate(chunks):
            # Chunk `position` ran between kernel runs `position` and
            # `position + 1`.
            cal = statistics.median(kernels[max(0, position - 1) : position + 3])
            for wall, cpu in chunk:
                cpu = min(cpu, wall)
                samples.wall_ms.append(wall * 1e3)
                samples.wait_ms.append((wall - cpu) * 1e3)
                samples.cal_ms.append(calibrated(wall, cpu, cal) * 1e3)

    def close(self) -> None:
        self._client.close()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _steal_seconds() -> float:
    """CPU seconds the hypervisor has taken from this VM since boot."""
    with open("/proc/stat", encoding="ascii") as handle:
        return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(samples: Samples, setup_seconds: list[float]) -> dict:
    return {
        "latency_p50_cal_ms": _metric(statistics.median(samples.cal_ms), "ms"),
        "latency_p95_cal_ms": _metric(percentile(samples.cal_ms, 0.95), "ms"),
        "throughput_cal_qps": _metric(
            len(samples.cal_ms) / (sum(samples.cal_ms) / 1e3), "1/s"
        ),
        "setup_s": _metric(statistics.median(setup_seconds), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }


def _counter_snapshot(stack: Stack) -> dict:
    service = stack.service
    handle = service.handle
    row_cache = handle.row_cache
    subpath = handle.subpath_cache
    return {
        "cache": (service.cache.hits, service.cache.misses),
        "row": (row_cache.hits, row_cache.misses) if row_cache is not None else (0, 0),
        "subpath": (subpath.hits, subpath.misses) if subpath is not None else (0, 0),
    }


def _per_layer(
    reference: Samples,
    traced: Samples,
    tracer: Tracer,
    counters_before: dict,
    counters_after: dict,
    setups: list[dict],
    index_mb: float,
) -> dict:
    metrics: dict = {}
    groups = tracer.by_request()
    requests = len(groups)
    self_wall = dict.fromkeys(SPAN_NAMES, 0.0)
    self_cal = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total_wall = 0.0
    for spans, wall_ms, cal_ms in zip(groups, traced.wall_ms, traced.cal_ms):
        root = spans[0]
        total_wall += root.end - root.start
        # A request's spans share its calibration: the same factor that
        # took its wall latency to its calibrated latency.
        factor = cal_ms / wall_ms
        for span in spans:
            calls[span.name] += 1
        for name, seconds in self_times(spans).items():
            self_wall[name] += seconds
            self_cal[name] += seconds * factor * 1e3
    for name in SPAN_NAMES:
        metrics[f"{name}.self_share"] = _metric(self_wall[name] / total_wall, "share")
        metrics[f"{name}.self_cal_ms_per_req"] = _metric(self_cal[name] / requests, "ms")
        metrics[f"{name}.calls_per_req"] = _metric(calls[name] / requests, "count")

    for key, name in (
        ("cache", "cache.hit_ratio"),
        ("row", "caching.row_hit_ratio"),
        ("subpath", "subpath.hit_ratio"),
    ):
        hits = counters_after[key][0] - counters_before[key][0]
        misses = counters_after[key][1] - counters_before[key][1]
        lookups = hits + misses
        metrics[name] = _metric(hits / lookups if lookups else 0.0, "share")
    metrics["strategies.rows_per_req"] = _metric(tracer.strategy_rows / requests, "count")
    metrics["strategies.nnz_per_req"] = _metric(tracer.strategy_nnz / requests, "count")
    metrics["results.response_bytes_p50"] = _metric(
        statistics.median(tracer.response_bytes), "B"
    )
    metrics["results.response_bytes_p95"] = _metric(
        percentile(tracer.response_bytes, 0.95), "B"
    )
    metrics["client.wait_ms_p50"] = _metric(statistics.median(reference.wait_ms), "ms")
    metrics["client.stall_share"] = _metric(
        sum(wait > STALL_MS for wait in reference.wait_ms) / len(reference.wait_ms),
        "share",
    )
    metrics["client.latency_p50_raw_ms"] = _metric(
        statistics.median(reference.wall_ms), "ms"
    )
    metrics["client.throughput_raw_qps"] = _metric(
        len(reference.wall_ms) / (sum(reference.wall_ms) / 1e3), "1/s"
    )
    kernel_ms = reference.kernel_ms + traced.kernel_ms
    metrics["calibrate.kernel_ms_p50"] = _metric(statistics.median(kernel_ms), "ms")
    metrics["calibrate.kernel_ms_max"] = _metric(max(kernel_ms), "ms")
    metrics["trace.unattributed_share"] = _metric(
        sum(
            self_wall[name]
            for name in ("client.request", "client.receive", "http.request")
        )
        / total_wall,
        "share",
    )
    metrics["trace.overhead_ratio"] = _metric(
        statistics.fmean(traced.cal_ms) / statistics.fmean(reference.cal_ms), "ratio"
    )
    for step in SETUP_STEPS:
        metrics[f"setup.{step}_s"] = _metric(
            statistics.median(setup[step] for setup in setups), "s"
        )
    metrics["setup.first_s"] = _metric(sum(setups[0].values()), "s")
    metrics["setup.index_mb"] = _metric(index_mb, "MB")
    return metrics


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run_workload(
    workload: Workload,
    sizes: Sizes,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    answers: list[str],
) -> dict:
    """Run ``workload`` once; returns the contract's result object.

    ``answers`` holds the oracle's digest for every distinct request, in
    the order of :func:`workloads.distinct_requests`.  An extra ``info``
    key rides along for the caller to report and strip: the number of
    measured requests, what explains an odd run, and the wall seconds each
    phase took.
    """
    requests = generate_requests(workload, sizes, seed)
    distinct = distinct_requests(workload, sizes, seed)
    if len(answers) != len(distinct):
        raise ValueError(f"{len(answers)} oracle answers for {len(distinct)} requests")
    kernel = CalibrationKernel()
    phase_s: dict[str, float] = {}
    phase_started = time.perf_counter()
    steal_started = _steal_seconds()

    def phase_done(name: str) -> None:
        nonlocal phase_started
        now = time.perf_counter()
        phase_s[name] = now - phase_started
        phase_started = now

    stack = None
    setups = []
    for _ in range(sizes.setups):
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()
        stack, setup_seconds = set_up(workload, sizes, kernel)
        setups.append(setup_seconds)
    phase_done("setups")
    try:
        index_mb = stack.service.handle.index_size_bytes() / 1e6
        failed = _verification_cycle(stack, workload, distinct, answers)
        attempted = len(distinct)
        phase_done("verification")

        plain = Driver(stack, workload, requests, kernel)
        drivers = [plain]
        try:
            if trace:
                # A cycle is the whole list: caches are emptied where it
                # wraps, so nothing shorter shows them what the timed
                # passes show them.  A session that keeps its cache has no
                # such seam, and any stretch of it is a cycle.
                count = TRACE_SESSION_REQUESTS if workload.keep_cache else len(requests)
                plain.run(count=count)
                tracer = Tracer()
                traced = Driver(stack, workload, requests, kernel, tracer)
                drivers.append(traced)
                with install(tracer):
                    before = _counter_snapshot(stack)
                    traced.run(count=count)
                    after = _counter_snapshot(stack)
                # The reference is the same cycle untraced, once before and
                # once after: a drift of the machine between two cycles
                # would otherwise read as tracing overhead.
                plain.run(count=count)
                OUT_DIR.mkdir(parents=True, exist_ok=True)
                tracer.write_jsonl(OUT_DIR / f"trace_{workload.name}.jsonl")
                samples = traced.samples
            else:
                for _ in range(sizes.passes):
                    plain.run(seconds=seconds / sizes.passes)
                samples = plain.samples
        finally:
            for driver in drivers:
                driver.close()
        attempted += sum(driver.samples.attempted for driver in drivers)
        failed += sum(driver.samples.failed for driver in drivers)
        phase_done("measured")
        # Metrics of a run with failures would describe a different workload.
        metrics = {}
        if failed == 0 and trace:
            metrics = _per_layer(
                plain.samples, samples, tracer, before, after, setups, index_mb
            )
        elif failed == 0:
            metrics = _end_to_end(samples, [sum(setup.values()) for setup in setups])
    finally:
        stack.close()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "samples": len(samples.cal_ms),
            # Three readings that explain an odd run: how fast the machine
            # was, how much of the latency was waiting rather than CPU, and
            # how long the hypervisor ran something else.
            "kernel_ms_p50": round(statistics.median(samples.kernel_ms), 3),
            "wait_share": round(sum(samples.wait_ms) / max(sum(samples.wall_ms), 1e-9), 4),
            "steal_s": round(_steal_seconds() - steal_started, 2),
            "phase_s": {name: round(value, 2) for name, value in phase_s.items()},
        },
    }
