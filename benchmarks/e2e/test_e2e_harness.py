"""Self-tests of the benchmark harness (smoke sizes, a few seconds).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import CAL_REF_MS, calibrated  # noqa: E402
from harness import verify_answer  # noqa: E402
from oracle import answer_digest  # noqa: E402
from trace import Span, self_times  # noqa: E402
from workloads import SMOKE, WORKLOADS, build_corpus, generate_requests  # noqa: E402


@pytest.fixture(scope="module")
def smoke_corpus():
    if not SMOKE.corpus_path.exists():
        build_corpus(SMOKE)
    return SMOKE


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_request_lists_follow_the_seed(smoke_corpus, name):
    workload = WORKLOADS[name]
    first = generate_requests(workload, smoke_corpus, 3)
    again = generate_requests(workload, smoke_corpus, 3)
    other = generate_requests(workload, smoke_corpus, 4)
    assert [r.body for r in first] == [r.body for r in again]
    assert [r.body for r in first] != [r.body for r in other]
    assert len(first) == len(other)


def test_calibrated_latency_arithmetic():
    # A pure sleep has no CPU share: it stays in real time.
    assert calibrated(0.040, 0.0, cal_ms=3.7) == 0.040
    # Pure CPU under a kernel twice as slow as the reference halves.
    assert calibrated(1.0, 1.0, cal_ms=2 * CAL_REF_MS) == pytest.approx(0.5)
    # Mixed: only the CPU part is rescaled; CPU beyond the wall is clamped.
    assert calibrated(1.0, 0.5, cal_ms=2 * CAL_REF_MS) == pytest.approx(0.75)
    assert calibrated(1.0, 1.7, cal_ms=CAL_REF_MS) == pytest.approx(1.0)


def test_self_time_is_duration_minus_child_cover():
    root = Span("client.request", 0.0, 10.0)
    a = Span("a", 1.0, 4.0, root)
    b = Span("b", 2.0, 3.0, a)
    c = Span("c", 6.0, 9.0, root)
    # A handler still returning after the client has its reply: clipped.
    late = Span("late", 8.5, 12.0, c)
    totals = self_times([root, a, b, c, late])
    assert totals == pytest.approx(
        {"client.request": 3.0, "a": 2.0, "b": 1.0, "c": 2.5, "late": 1.5}
    )
    assert sum(totals.values()) == pytest.approx(root.end - root.start)


def test_tampered_response_fails_verification():
    answer = {"measure": "netout", "scores": [["author", 3, 0.25]]}
    expected = answer_digest(answer)
    good = json.dumps({"result": answer, "cached": False}).encode()
    assert verify_answer(200, good, expected)
    # Key order is not part of the answer; every value is.
    reordered = json.dumps({"result": dict(reversed(answer.items()))}).encode()
    assert verify_answer(200, reordered, expected)
    tampered = json.dumps(
        {"result": {**answer, "scores": [["author", 3, 0.2500001]]}}
    ).encode()
    assert not verify_answer(200, tampered, expected)
    assert not verify_answer(500, good, expected)
    assert not verify_answer(200, b"not json", expected)
    assert not verify_answer(200, b'{"error": {}}', expected)


def _traced_smoke_run(name: str) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke",
            "--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1",
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("name", ["venue_wide", "hot_session"])
def test_traced_counts_repeat_exactly(smoke_corpus, name):
    first, second = _traced_smoke_run(name), _traced_smoke_run(name)
    assert first.keys() == second.keys()
    repeatable = [
        metric
        for metric in first
        if metric.endswith((".calls_per_req", "hit_ratio", "_per_req"))
        and "_cal_ms_" not in metric
        or metric.startswith("results.response_bytes")
    ]
    assert len(repeatable) > 25
    for metric in repeatable:
        assert first[metric]["value"] == second[metric]["value"], metric
    assert (SMOKE.corpus_path.parent / f"trace_{name}.jsonl").stat().st_size > 0
