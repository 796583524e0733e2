"""Tests for the latency line ``repro workload`` prints per strategy."""

import io
import re

import numpy as np
import pytest

from repro.cli import _latency_line, main
from repro.engine.detector import OutlierDetector
from repro.exceptions import ExecutionError
from repro.hin.io import save_json

QUERY = (
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3;"
)


def milliseconds(line: str) -> dict[str, float]:
    return {key: float(value) for key, value in re.findall(r"(\w+)=([\d.]+)ms", line)}


class TestFromSeconds:
    def test_basic_statistics(self):
        line = _latency_line([0.001] * 99 + [0.1])
        assert line.startswith("n=100  mean=1.99ms  p50=1.00ms  ")
        assert line.endswith("  max=100.00ms")

    def test_percentiles_ordered(self):
        rng = np.random.default_rng(0)
        values = milliseconds(_latency_line(rng.exponential(0.01, size=500)))
        assert values["p50"] <= values["p90"] <= values["p99"] <= values["max"]

    def test_single_sample(self):
        assert set(milliseconds(_latency_line([0.5])).values()) == {500.0}

    def test_empty_rejected(self):
        with pytest.raises(ExecutionError, match="empty"):
            _latency_line([])

    def test_describe_renders_milliseconds(self):
        assert _latency_line([0.002]) == (
            "n=1  mean=2.00ms  p50=2.00ms  p90=2.00ms  p99=2.00ms  max=2.00ms"
        )


class TestFromResults:
    def test_from_executed_workload(self, figure1):
        results, __ = OutlierDetector(figure1).detect_many([QUERY] * 5)
        line = _latency_line([result.stats.wall_seconds for result in results])
        assert line.startswith("n=5  ")
        assert milliseconds(line)["mean"] > 0

    def test_empty_results_rejected(self, figure1, tmp_path):
        """A workload whose every query fails has no latency to report."""
        save_json(figure1, str(tmp_path / "net.json"))
        (tmp_path / "dead.sql").write_text(QUERY.replace("Zoe", "Ghost"))
        out = io.StringIO()
        argv = ["workload", "--network", str(tmp_path / "net.json"),
                "--queries-file", str(tmp_path / "dead.sql")]  # fmt: skip
        assert main(argv, out=out) == 1
        assert "error: cannot summarize an empty latency sample" in out.getvalue()
