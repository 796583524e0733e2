#!/usr/bin/env python
"""Chaos smoke test for ``repro route``: kill a replica mid-burst, lose nothing.

Boots the replica router as a subprocess (3 supervised ``repro serve``
replicas behind the consistent-hash frontend), then asserts the
fault-tolerance contract end to end:

* a warm burst of concurrent queries all answer 200, each stamped with the
  ``X-Repro-Replica`` that served it;
* SIGKILL-ing one replica **mid-burst** loses no client request — every
  in-flight and subsequent query still answers 200 (failover absorbs the
  crash; zero 5xx reach clients);
* the killed replica's key range *moves* to a surviving replica, and after
  the supervisor respawns the replica and a probe re-admits it, the range
  *returns* to the original owner;
* serve settings given to ``repro route`` reach the replicas (``--timeout
  30 --row-cache-rows 0`` show in every replica's own ``/stats``);
* the router shuts down cleanly on SIGTERM (exit code 0).

Run from the repository root::

    PYTHONPATH=src python scripts/route_smoke.py

Exits 0 on success, 1 on any violation — CI-friendly, stdlib-only.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BURST_WORKERS = 8
WARM_QUERIES = 24
CHAOS_QUERIES = 48
DISTINCT_QUERIES = [
    'FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author '
    f"JUDGED BY author.paper.venue TOP {top};"
    for top in range(1, 9)
]


def request(host: str, port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read()),
        )
    finally:
        connection.close()


def replica_rows(host: str, port: int) -> dict[str, dict]:
    _, _, payload = request(host, port, "GET", "/replicas")
    return {row["replica_id"]: row for row in payload["replicas"]}


def wait_until(predicate, *, timeout: float, interval: float = 0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        corpus = str(Path(tmp) / "corpus.json")
        subprocess.run(
            [sys.executable, "-m", "repro", "generate",
             "--preset", "ego", "--seed", "0", "--out", corpus],
            check=True,
            cwd=repo_root,
        )

        router = subprocess.Popen(
            [sys.executable, "-m", "repro", "route",
             "--network", corpus,
             "--replicas", "3",
             "--port", "0",
             "--workers", "2",
             "--queue-depth", "64",
             # Serve settings route had no flag for before they were
             # generated from ServiceConfig; each replica must receive them.
             "--timeout", "30",
             "--row-cache-rows", "0",
             # Tight chaos windows: a dead replica leaves rotation within
             # 0.2s, its respawn re-enters within 0.2s of its banner.
             "--probe-interval", "0.2",
             "--breaker-threshold", "2",
             "--breaker-reset", "1.0",
             "--restart-base-delay", "0.2",
             "--max-restarts-in-window", "10"],
            cwd=repo_root,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = router.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            if match is None:
                print(f"FAIL: no routing banner, got {banner!r}")
                return 1
            host, port = match.group(1), int(match.group(2))
            print(banner.strip())
            # Keep draining router stdout so it can never block on the pipe.
            threading.Thread(
                target=router.stdout.read, daemon=True
            ).start()

            statuses: list[int] = []
            lock = threading.Lock()

            def post(query: str) -> str | None:
                """One routed query; records its status, returns the server."""
                try:
                    status, headers, _ = request(
                        host, port, "POST", "/query", {"query": query}
                    )
                except OSError as error:
                    with lock:
                        statuses.append(599)
                    print(f"FAIL: client transport error: {error}")
                    return None
                with lock:
                    statuses.append(status)
                return headers.get("X-Repro-Replica")

            # -- Phase 0: the fleet runs with the settings route was given ---
            for replica_id, row in sorted(replica_rows(host, port).items()):
                replica_host, replica_port = row["address"].split(":")
                _, _, stats = request(
                    replica_host, int(replica_port), "GET", "/stats"
                )
                if stats["service"]["timeout_seconds"] != 30:
                    failures.append(
                        f"{replica_id} did not receive --timeout 30: "
                        f"{stats['service']['timeout_seconds']!r}"
                    )
                if "row_cache" in stats["engine"]:
                    failures.append(
                        f"{replica_id} did not receive --row-cache-rows 0"
                    )

            probe_query = DISTINCT_QUERIES[0]
            with ThreadPoolExecutor(max_workers=BURST_WORKERS) as pool:
                # -- Phase 1: warm burst -------------------------------------
                warm = [
                    DISTINCT_QUERIES[i % len(DISTINCT_QUERIES)]
                    for i in range(WARM_QUERIES)
                ]
                list(pool.map(post, warm))
                owner = post(probe_query)
                if owner is None:
                    print("FAIL: no replica answered the probe query")
                    return 1
                rows = replica_rows(host, port)
                victim_pid = rows[owner]["pid"]
                print(
                    f"probe query owned by {owner} (pid {victim_pid}); "
                    f"killing it mid-burst"
                )

                # -- Phase 2: SIGKILL the owner mid-burst --------------------
                chaos = [
                    DISTINCT_QUERIES[i % len(DISTINCT_QUERIES)]
                    for i in range(CHAOS_QUERIES)
                ]
                burst = [pool.submit(post, query) for query in chaos]
                time.sleep(0.1)  # let the burst get in flight
                os.kill(victim_pid, signal.SIGKILL)
                moved_to = post(probe_query)
                for future in burst:
                    future.result()
                if moved_to == owner or moved_to is None:
                    failures.append(
                        f"key range did not move off the dead replica "
                        f"(answered by {moved_to!r})"
                    )
                else:
                    print(f"key range moved: {owner} -> {moved_to}")

                # -- Phase 3: respawn returns the key range ------------------
                def respawned():
                    rows = replica_rows(host, port)
                    row = rows[owner]
                    return (
                        row["pid"] not in (None, victim_pid)
                        and row["healthy"]
                    )

                if not wait_until(respawned, timeout=60.0):
                    failures.append(f"{owner} never respawned healthy")
                elif not wait_until(
                    lambda: post(probe_query) == owner, timeout=10.0
                ):
                    failures.append(
                        f"key range never returned to respawned {owner}"
                    )
                else:
                    new_pid = replica_rows(host, port)[owner]["pid"]
                    print(
                        f"{owner} respawned (pid {victim_pid} -> {new_pid}); "
                        f"key range returned"
                    )

            failed = [status for status in statuses if status >= 500]
            if failed:
                failures.append(
                    f"{len(failed)} of {len(statuses)} client requests "
                    f"failed: {sorted(set(failed))}"
                )

            router.send_signal(signal.SIGTERM)
            try:
                router.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                failures.append("router did not exit on SIGTERM")
            else:
                if router.returncode != 0:
                    failures.append(f"router exit code {router.returncode}")

            if failures:
                for failure in failures:
                    print(f"FAIL: {failure}")
                return 1
            print(
                f"OK: {len(statuses)} client requests, zero failures through "
                f"a SIGKILL; key range moved and returned; clean shutdown"
            )
            return 0
        finally:
            if router.poll() is None:
                router.terminate()
                try:
                    router.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    router.kill()
                    router.wait(timeout=5.0)


if __name__ == "__main__":
    raise SystemExit(main())
