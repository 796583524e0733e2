#!/usr/bin/env python
"""Smoke test for ``repro serve``: real process, real HTTP, real concurrency.

Boots the service as a subprocess on an ephemeral port, fires 50 concurrent
queries at it in waves (a small distinct-query pool, repeated — the shape of
a dashboard workload), and asserts the serving contract:

* every response is non-5xx (2xx for queries, no server-side crashes),
* the result-cache hit rate sampled from ``GET /stats`` after each wave is
  monotone non-decreasing and ends above where it started,
* the server shuts down cleanly (exit code 0) after ``--max-requests``.

With ``--adaptive`` the server runs the workload-adaptive re-indexer
(``--strategy spm --adaptive``, tight interval) under a ``--timeout``, so
the SPM index is served through the degradation ladder, and the smoke
additionally asserts:

* a semantically invalid query is answered 400, and the admission log entry
  it leaves behind does not stop re-indexing,
* a background re-index cycle lands while traffic flows (``/healthz``
  reports ``index.generation >= 1`` and ``index.reindexes >= 1``),
* a pinned query's result payload is byte-identical before and after the
  hot-swap (adaptation must never change answers),
* the ``engine.fingerprint`` in ``/stats`` is identical before and after
  the hot-swap (a swap keeps the ladder),
* the server drains cleanly on SIGTERM (exit code 0).

With ``--storage mmap`` the server keeps adjacency, index and (on the
process backend) its worker segments in file-backed array stores under a
``--storage-dir``; after shutdown that directory must hold nothing but the
published ``pm-index/`` — no worker store, no uncommitted array file.
With ``--backend process`` one worker (its pid read from ``/stats``) is
SIGKILLed between waves 2 and 3: the pool must be back to four live
workers within 30 s with ``restarts >= 1``, and no request may get a 5xx.
With ``--backend process`` on the RAM tier, ``/stats`` must name a worker
segment directory under ``/dev/shm`` (the temp dir on a host without one),
and after shutdown no ``repro-serve-<server pid>-*`` entry may remain
there — the adaptive run covers every hot-swap generation.

Run from the repository root::

    PYTHONPATH=src python scripts/serve_smoke.py [--backend thread|process]
                                                 [--storage ram|mmap]
                                                 [--adaptive]

``--backend`` selects the service's execution backend (CI runs the smoke
once per backend); the serving contract asserted here is identical for
both.  Exits 0 on success, 1 on any violation — CI-friendly, stdlib-only.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

WAVES = 5
QUERIES_PER_WAVE = 10
DISTINCT_QUERIES = [
    'FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author '
    f"JUDGED BY author.paper.venue TOP {top};"
    for top in range(1, 6)
]
INVALID_QUERY = (
    "FIND OUTLIERS FROM author.venue JUDGED BY author.paper.venue TOP 3;"
)
#: The process backend's worker kill comes after this wave.
KILL_AFTER_WAVE = 2
#: /stats polls allowed for the pool to heal after the kill (30 s).
RECOVERY_POLLS = 120
#: 50 queries + one /stats probe per wave + the recovery polls (the unused
#: ones are spent on /healthz at the end); the server stops itself after.
TOTAL_REQUESTS = WAVES * (QUERIES_PER_WAVE + 1) + RECOVERY_POLLS


def request(host: str, port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def kill_a_worker(host: str, port: int, stats: dict, failures: list) -> int:
    """SIGKILL one live worker named in ``stats``; poll ``/stats`` until
    the pool is back to four live workers.  Returns the polls made."""
    victim = next(row["pid"] for row in stats["backend"]["per_worker"] if row["alive"])
    os.kill(victim, signal.SIGKILL)
    for polls in range(1, RECOVERY_POLLS + 1):
        status, stats = request(host, port, "GET", "/stats")
        backend = stats.get("backend", {})
        if status == 200 and backend["live_workers"] == 4 and sum(
            row["restarts"] for row in backend["per_worker"]
        ) >= 1:
            print(f"killed worker {victim}: pool healed after {polls} polls")
            return polls
        time.sleep(0.25)
    failures.append(f"pool not back to 4 live workers with a restart: {stats}")
    return polls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="execution backend for the served QueryService",
    )
    parser.add_argument(
        "--storage",
        choices=("ram", "mmap"),
        default="ram",
        help="array tier of the served network and index",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="serve with the workload-adaptive re-indexer and assert a "
        "hot-swap lands without changing answers",
    )
    args = parser.parse_args()
    repo_root = Path(__file__).resolve().parent.parent
    # The RAM tier's worker segments live under /dev/shm when it exists.
    shm_check = args.backend == "process" and args.storage == "ram"
    segment_root = Path("/dev/shm")
    if not segment_root.is_dir():
        segment_root = Path(tempfile.gettempdir())
    with tempfile.TemporaryDirectory() as tmp:
        corpus = str(Path(tmp) / "corpus.json")
        subprocess.run(
            [sys.executable, "-m", "repro", "generate",
             "--preset", "ego", "--seed", "0", "--out", corpus],
            check=True,
            cwd=repo_root,
        )

        command = [sys.executable, "-m", "repro", "serve",
                   "--network", corpus,
                   "--port", "0",
                   "--backend", args.backend,
                   "--workers", "4",
                   "--queue-depth", "64"]
        storage_dir = Path(tmp) / "storage"
        if args.storage == "mmap":
            command += ["--storage", "mmap", "--storage-dir", str(storage_dir)]
        if args.adaptive:
            # SPM under the ladder + a tight re-index loop; shutdown comes
            # via SIGTERM once the swap has been observed, not via a request
            # budget.
            command += ["--strategy", "spm",
                        "--timeout", "30",
                        "--adaptive",
                        "--reindex-interval", "1.0",
                        "--reindex-min-queries", "10",
                        "--subpath-cache-mb", "16"]
        else:
            command += ["--max-requests", str(TOTAL_REQUESTS)]
        server = subprocess.Popen(
            command,
            cwd=repo_root,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            if match is None:
                print(f"FAIL: no serving banner, got {banner!r}")
                return 1
            host, port = match.group(1), int(match.group(2))
            print(banner.strip())

            def post(query: str):
                return request(host, port, "POST", "/query", {"query": query})

            bad_statuses: list[int] = []
            polls = 0
            hit_rates: list[float] = []
            failures = []
            pinned_before = fingerprint_before = None
            if args.adaptive:
                # Pin the engine fingerprint and one query's payload before
                # any swap can land.
                fingerprint_before = request(host, port, "GET", "/stats")[1][
                    "engine"
                ]["fingerprint"]
                status, body = post(DISTINCT_QUERIES[0])
                if status != 200:
                    print(f"FAIL: pinned query got {status}: {body}")
                    return 1
                pinned_before = json.dumps(body["result"], sort_keys=True)
                # A query that parses but names no edge type: the admission
                # log keeps it, and re-indexing must skip it, not stall.
                status, body = post(INVALID_QUERY)
                if status != 400:
                    print(f"FAIL: semantically invalid query got {status}: {body}")
                    return 1
            with ThreadPoolExecutor(max_workers=QUERIES_PER_WAVE) as pool:
                for wave in range(WAVES):
                    queries = [
                        DISTINCT_QUERIES[i % len(DISTINCT_QUERIES)]
                        for i in range(QUERIES_PER_WAVE)
                    ]
                    for status, _ in pool.map(post, queries):
                        if status >= 500:
                            bad_statuses.append(status)
                    status, stats = request(host, port, "GET", "/stats")
                    if status >= 500:
                        bad_statuses.append(status)
                    hit_rates.append(stats["cache"]["hit_rate"])
                    if shm_check:
                        segment = Path(stats["backend"]["segment"])
                        if not (
                            segment.is_dir() and segment.parent == segment_root
                        ):
                            failures.append(
                                f"segment {segment} is not a directory "
                                f"under {segment_root}"
                            )
                    print(
                        f"wave {wave + 1}/{WAVES}: "
                        f"cache hit rate {hit_rates[-1]:.2f}"
                    )
                    if args.backend == "process" and wave + 1 == KILL_AFTER_WAVE:
                        polls = kill_a_worker(host, port, stats, failures)

            if not args.adaptive:
                # Spend the recovery polls the kill did not use, so the
                # server's request budget ends exactly here.
                for _ in range(RECOVERY_POLLS - polls):
                    request(host, port, "GET", "/healthz")
            if args.adaptive:
                # Wait for a re-index cycle to land on live traffic.
                index_meta = {}
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    status, health = request(host, port, "GET", "/healthz")
                    index_meta = health.get("index", {})
                    if (
                        status == 200
                        and index_meta.get("generation", 0) >= 1
                        and index_meta.get("reindexes", 0) >= 1
                    ):
                        break
                    time.sleep(0.25)
                else:
                    failures.append(
                        f"no re-index landed within 30s: {index_meta}"
                    )
                if not failures:
                    print(
                        f"re-index landed: generation "
                        f"{index_meta['generation']}, row coverage "
                        f"{index_meta['row_coverage']:.3f}"
                    )
                    status, body = post(DISTINCT_QUERIES[0])
                    if status != 200:
                        failures.append(f"post-swap query got {status}")
                    elif (
                        json.dumps(body["result"], sort_keys=True)
                        != pinned_before
                    ):
                        failures.append(
                            "hot-swap changed the pinned query's payload"
                        )
                    fingerprint = request(host, port, "GET", "/stats")[1][
                        "engine"
                    ]["fingerprint"]
                    if fingerprint != fingerprint_before:
                        failures.append(
                            f"hot-swap changed the engine fingerprint: "
                            f"{fingerprint_before} -> {fingerprint}"
                        )
                server.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 30.0
            while server.poll() is None and time.monotonic() < deadline:
                time.sleep(0.1)

            if bad_statuses:
                failures.append(f"5xx responses: {bad_statuses}")
            if not args.adaptive:
                # A hot-swap invalidates the result cache by design, so the
                # monotone-hit-rate contract only binds the static smoke.
                if any(b < a for a, b in zip(hit_rates, hit_rates[1:])):
                    failures.append(f"hit rate not monotone: {hit_rates}")
                if hit_rates[-1] <= hit_rates[0]:
                    failures.append(f"cache never warmed: {hit_rates}")
            if server.returncode != 0:
                failures.append(f"server exit code {server.returncode}")
            if args.storage == "mmap":
                # pm-index/ is the one published store (absent for spm).
                left = set(os.listdir(storage_dir)) - {"pm-index"}
                if left:
                    failures.append(f"storage dir not cleaned up: {sorted(left)}")
            if shm_check:
                left = sorted(
                    path.name
                    for path in segment_root.glob(f"repro-serve-{server.pid}-*")
                )
                if left:
                    failures.append(
                        f"worker segments left in {segment_root}: {left}"
                    )
            if failures:
                for failure in failures:
                    print(f"FAIL: {failure}")
                return 1
            print(
                f"OK: {WAVES * QUERIES_PER_WAVE} concurrent queries, "
                f"zero 5xx, hit rate {hit_rates[0]:.2f} -> {hit_rates[-1]:.2f}, "
                + ("adaptive swap verified, " if args.adaptive else "")
                + "clean shutdown"
            )
            return 0
        finally:
            if server.poll() is None:
                server.terminate()
                server.wait(timeout=10.0)
            server.stdout.close()


if __name__ == "__main__":
    raise SystemExit(main())
