"""Tests for OutlierResult export helpers (records/JSON/CSV) and CLI formats."""

import csv
import io
import json
import re

import pytest

from repro.core.results import OutlierResult
from repro.hin.network import VertexId


@pytest.fixture()
def result():
    scores = {
        VertexId("author", 0): 3.0,
        VertexId("author", 1): 1.0,
        VertexId("author", 2): 2.0,
    }
    names = {
        VertexId("author", 0): "Carol",
        VertexId("author", 1): "Alice",
        VertexId("author", 2): "Bob",
    }
    return OutlierResult.from_scores(
        scores, names, top_k=2, reference_count=10, measure="netout"
    )


class TestToRecords:
    def test_records_in_rank_order(self, result):
        records = result.to_records()
        assert [r["name"] for r in records] == ["Alice", "Bob"]
        assert [r["rank"] for r in records] == [1, 2]
        assert records[0]["vertex_type"] == "author"
        assert records[0]["vertex_index"] == 1
        assert records[0]["score"] == 1.0


class TestToJson:
    def test_round_trips_through_json(self, result):
        payload = json.loads(result.to_json())
        assert payload["measure"] == "netout"
        assert payload["candidate_count"] == 3
        assert payload["reference_count"] == 10
        assert [o["name"] for o in payload["outliers"]] == ["Alice", "Bob"]


class TestToCsv:
    def test_csv_rows(self, result):
        buffer = io.StringIO()
        written = result.to_csv(buffer)
        assert written == 2
        buffer.seek(0)
        rows = list(csv.reader(buffer))
        assert rows[0] == ["rank", "name", "vertex_type", "vertex_index", "score"]
        assert rows[1][1] == "Alice"
        assert len(rows) == 3


class TestToDictFromDict:
    def test_round_trip_scores_and_ranks(self, result):
        back = OutlierResult.from_dict(result.to_dict())
        assert back.outliers == result.outliers
        assert back.scores == result.scores
        assert back.candidate_count == 3
        assert back.reference_count == 10
        assert back.measure == "netout"

    def test_payload_is_json_safe(self, result):
        back = OutlierResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.names() == result.names()
        assert back.scores == result.scores

    def test_degradation_flags_round_trip(self):
        vertex = VertexId("author", 0)
        degraded = OutlierResult.from_scores(
            {vertex: 1.0},
            {vertex: "Alice"},
            top_k=1,
            reference_count=2,
            degraded=True,
            degradation_reason="served from the baseline rung",
        )
        back = OutlierResult.from_dict(degraded.to_dict())
        assert back.degraded is True
        assert back.degradation_reason == "served from the baseline rung"

    def test_feature_scores_round_trip(self):
        vertex = VertexId("author", 0)
        result = OutlierResult.from_scores(
            {vertex: 1.0},
            {vertex: "Alice"},
            top_k=1,
            reference_count=2,
            feature_scores={"author.paper.venue": {vertex: 0.25}},
        )
        back = OutlierResult.from_dict(result.to_dict())
        assert back.feature_scores == {"author.paper.venue": {vertex: 0.25}}

    def test_stats_are_excluded(self, result):
        from repro.engine.stats import ExecutionStats

        result.stats = ExecutionStats()
        payload = result.to_dict()
        assert "stats" not in payload
        assert OutlierResult.from_dict(payload).stats is None


class TestCliFormats:
    @pytest.fixture(scope="class")
    def corpus_path(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("fmt") / "corpus.json"
        out = io.StringIO()
        assert (
            main(
                ["generate", "--preset", "ego", "--seed", "0", "--out", str(path)],
                out=out,
            )
            == 0
        )
        return str(path)

    QUERY = (
        'FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author '
        "JUDGED BY author.paper.venue TOP 3;"
    )

    def _run(self, argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_json_format(self, corpus_path):
        code, output = self._run(
            ["query", "--network", corpus_path, "--format", "json", self.QUERY]
        )
        assert code == 0
        payload = json.loads(output)
        assert len(payload["outliers"]) == 3

    def test_csv_format(self, corpus_path):
        code, output = self._run(
            ["query", "--network", corpus_path, "--format", "csv", self.QUERY]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(output)))
        assert rows[0][0] == "rank"
        assert len(rows) == 4

    def test_workload_command(self, corpus_path):
        code, output = self._run(
            [
                "workload",
                "--network", corpus_path,
                "--template", "Q1",
                "--count", "10",
                "--strategies", "baseline,pm",
            ]
        )
        assert code == 0
        # The latency line's layout is the command's contract.
        number = r"\d+\.\d\dms"
        assert re.search(
            rf"^ baseline  n=10  mean={number}  p50={number}  p90={number}  "
            rf"p99={number}  max={number}$",
            output,
            re.MULTILINE,
        )
        assert "index=" in output

    def test_html_format_writes_file(self, corpus_path, tmp_path):
        target = tmp_path / "report.html"
        code, output = self._run(
            [
                "query",
                "--network", corpus_path,
                "--format", "html",
                "--out", str(target),
                self.QUERY,
            ]
        )
        assert code == 0
        assert target.exists()
        assert target.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_html_format_requires_out(self, corpus_path):
        code, output = self._run(
            ["query", "--network", corpus_path, "--format", "html", self.QUERY]
        )
        assert code == 1
        assert "--out" in output

    def test_csv_to_file(self, corpus_path, tmp_path):
        target = tmp_path / "result.csv"
        code, __ = self._run(
            [
                "query",
                "--network", corpus_path,
                "--format", "csv",
                "--out", str(target),
                self.QUERY,
            ]
        )
        assert code == 0
        assert target.read_text().startswith("rank,")

    def test_workload_replay_from_file(self, corpus_path, tmp_path):
        log = tmp_path / "log.sql"
        log.write_text(
            "-- a dead entry and two live ones\n"
            'FIND OUTLIERS FROM author{"Ghost"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;\n"
            + self.QUERY + "\n"
            + self.QUERY + "\n",
            encoding="utf-8",
        )
        code, output = self._run(
            [
                "workload",
                "--network", corpus_path,
                "--queries-file", str(log),
                "--strategies", "pm",
            ]
        )
        assert code == 0
        assert "3 queries" in output
        assert "n=2" in output  # the dead anchor was skipped

    def test_workload_missing_file(self, corpus_path):
        code, output = self._run(
            ["workload", "--network", corpus_path, "--queries-file", "/nope.sql"]
        )
        assert code == 1
        assert "not found" in output

    def test_workload_bad_strategies(self, corpus_path):
        code, output = self._run(
            ["workload", "--network", corpus_path, "--strategies", " , "]
        )
        assert code == 1
        assert "no strategies" in output
