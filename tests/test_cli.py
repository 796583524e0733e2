"""Tests for :mod:`repro.cli`."""

import io

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    """A small generated corpus on disk, shared across CLI tests."""
    path = tmp_path_factory.mktemp("cli") / "corpus.json"
    out = io.StringIO()
    code = main(
        ["generate", "--preset", "ego", "--seed", "1", "--out", str(path)],
        out=out,
    )
    assert code == 0
    return str(path)


QUERY = (
    'FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author '
    "JUDGED BY author.paper.venue TOP 5;"
)


def run(argv, stdin_text=""):
    out = io.StringIO()
    code = main(argv, out=out, stdin=io.StringIO(stdin_text))
    return code, out.getvalue()


class TestGenerate:
    @pytest.mark.parametrize("preset", ["bibliographic", "ego", "security"])
    def test_presets(self, tmp_path, preset):
        path = tmp_path / f"{preset}.json"
        code, output = run(
            ["generate", "--preset", preset, "--seed", "0", "--out", str(path)]
        )
        assert code == 0
        assert path.exists()
        assert "wrote" in output


class TestQuery:
    def test_query_prints_ranking(self, corpus_path):
        code, output = run(["query", "--network", corpus_path, QUERY])
        assert code == 0
        assert "Rank" in output
        assert "CrossField" in output

    def test_strategy_and_measure_flags(self, corpus_path):
        code, output = run(
            [
                "query",
                "--network", corpus_path,
                "--strategy", "baseline",
                "--measure", "pathsim",
                QUERY,
            ]
        )
        assert code == 0
        assert "Student" in output

    def test_distribution_flag(self, corpus_path):
        code, output = run(
            ["query", "--network", corpus_path, "--distribution", QUERY]
        )
        assert code == 0
        assert "Ω distribution" in output

    def test_stats_flag(self, corpus_path):
        code, output = run(["query", "--network", corpus_path, "--stats", QUERY])
        assert code == 0
        assert "wall time" in output
        assert "outlierness_calculation" in output

    def test_missing_network_file(self):
        code, output = run(["query", "--network", "/nope.json", QUERY])
        assert code == 1
        assert "not found" in output

    def test_bad_query_reports_error(self, corpus_path):
        code, output = run(["query", "--network", corpus_path, "FIND nonsense"])
        assert code == 1
        assert "error" in output


class TestExplainSuggestSchema:
    def test_explain(self, corpus_path):
        code, output = run(["explain", "--network", corpus_path, QUERY])
        assert code == 0
        assert "strategy        : pm" in output
        assert "author.paper.venue" in output

    def test_suggest(self, corpus_path):
        code, output = run(
            ["suggest", "--network", corpus_path, "--max-suggestions", "2", QUERY]
        )
        assert code == 0
        assert "interestingness" in output

    def test_schema(self, corpus_path):
        code, output = run(["schema", "--network", corpus_path])
        assert code == 0
        assert "author" in output
        assert "paper -- venue" in output or "venue -- paper" in output

    def test_stats(self, corpus_path):
        code, output = run(["stats", "--network", corpus_path])
        assert code == 0
        assert "vertex types:" in output
        assert "gini" in output
        assert "author" in output


class TestShell:
    def test_query_and_quit(self, corpus_path):
        script = QUERY + "\n.quit\n"
        code, output = run(["shell", "--network", corpus_path], script)
        assert code == 0
        assert "Rank" in output

    def test_multiline_query(self, corpus_path):
        script = (
            'FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author\n'
            "JUDGED BY author.paper.venue\n"
            "TOP 3;\n"
            ".quit\n"
        )
        code, output = run(["shell", "--network", corpus_path], script)
        assert code == 0
        assert "Rank" in output

    def test_dot_commands(self, corpus_path):
        script = (
            ".help\n"
            ".schema\n"
            ".strategy baseline\n"
            ".measure cossim\n"
            ".unknown\n"
            ".quit\n"
        )
        code, output = run(["shell", "--network", corpus_path], script)
        assert code == 0
        assert "dot-command" in output
        assert "strategy = baseline" in output
        assert "measure = cossim" in output
        assert "unknown command" in output

    def test_explain_and_suggest_commands(self, corpus_path):
        script = f".explain {QUERY}\n.suggest {QUERY}\n.quit\n"
        code, output = run(["shell", "--network", corpus_path], script)
        assert code == 0
        assert "candidate set" in output
        assert "interestingness" in output

    def test_error_recovery(self, corpus_path):
        script = "FIND gibberish;\n" + QUERY + "\n.quit\n"
        code, output = run(["shell", "--network", corpus_path], script)
        assert code == 0
        assert "error:" in output
        assert "Rank" in output

    def test_eof_terminates(self, corpus_path):
        code, __ = run(["shell", "--network", corpus_path], "")
        assert code == 0


class TestServe:
    def test_serve_answers_http_and_stops_at_limit(self, corpus_path):
        import http.client
        import json
        import re
        import threading
        import time

        out = io.StringIO()
        outcome = {}

        def run_server():
            outcome["code"] = main(
                [
                    "serve",
                    "--network", corpus_path,
                    "--port", "0",
                    "--workers", "2",
                    "--max-requests", "3",
                ],
                out=out,
            )

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        # The banner line (flushed before serve_forever) carries the
        # ephemeral port.
        deadline = time.monotonic() + 30.0
        match = None
        while match is None and time.monotonic() < deadline:
            match = re.search(r"http://([\d.]+):(\d+)", out.getvalue())
            if match is None:
                time.sleep(0.05)
        assert match is not None, f"no serving banner in: {out.getvalue()!r}"
        host, port = match.group(1), int(match.group(2))

        def post_query():
            connection = http.client.HTTPConnection(host, port, timeout=30.0)
            try:
                connection.request(
                    "POST",
                    "/query",
                    body=json.dumps({"query": QUERY}).encode("utf-8"),
                )
                response = connection.getresponse()
                return response.status, json.loads(response.read())
            finally:
                connection.close()

        status, first = post_query()
        assert status == 200
        assert first["cached"] is False
        assert len(first["result"]["outliers"]) == 5
        status, second = post_query()
        assert status == 200
        assert second["cached"] is True
        status, payload = post_query()  # third request hits --max-requests
        assert status == 200

        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert outcome["code"] == 0
        assert "served 3 requests; shut down cleanly" in out.getvalue()


    def test_negative_cache_ttl_is_refused_and_zero_turns_the_cache_off(
        self, corpus_path
    ):
        """`--cache-ttl -5` used to mean "a cache that never expires"."""
        from repro.cli import _service_config, build_parser

        code, output = run(["serve", "--network", corpus_path, "--cache-ttl", "-5"])
        assert code == 1
        assert "error: cache_ttl_seconds must be >= 0, got -5.0" in output

        def config(*flags):
            argv = ["serve", "--network", corpus_path, *flags]
            return _service_config(build_parser().parse_args(argv))

        off = config("--cache-ttl", "0")
        assert (off.cache_ttl_seconds, off.cache_max_entries) == (None, 0)
        on = config("--cache-ttl", "5")
        assert (on.cache_ttl_seconds, on.cache_max_entries) == (5.0, 1024)


class TestZoo:
    def test_quick_grid_with_report(self, tmp_path):
        import json

        report_path = tmp_path / "zoo.json"
        code, output = run(
            [
                "zoo",
                "--quick",
                "--scenario",
                "fraud-ring",
                "--detector",
                "ppr",
                "--detector",
                "knn",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        assert "fraud-ring" in output
        assert "ppr" in output and "knn" in output
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["detectors"] == ["ppr", "knn"]
        assert len(report["results"]) == 2

    def test_seeds_and_k_knobs(self):
        code, output = run(
            [
                "zoo",
                "--quick",
                "--scenario",
                "compromised-host",
                "--detector",
                "knn",
                "--seeds",
                "0,1",
                "--k",
                "2",
            ]
        )
        assert code == 0
        # One row per seed.
        assert output.count("compromised-host") == 2

    def test_list_scenarios_and_detectors(self):
        code, output = run(["zoo", "--scenario", "list"])
        assert code == 0
        assert "attribute-outlier" in output
        code, output = run(["zoo", "--detector", "list"])
        assert code == 0
        assert "netout" in output

    def test_unknown_names_fail_cleanly(self):
        code, output = run(["zoo", "--quick", "--scenario", "nope"])
        assert code == 1
        assert "unknown scenario" in output
        code, output = run(["zoo", "--quick", "--detector", "nope"])
        assert code == 1
        assert "unknown detector" in output

    def test_bad_seeds_fail_cleanly(self):
        code, output = run(["zoo", "--quick", "--seeds", "one,two"])
        assert code == 1
        assert "comma-separated integers" in output

    def test_smoke_env_forces_quick(self, monkeypatch, tmp_path):
        import json

        report_path = tmp_path / "zoo_smoke.json"
        monkeypatch.setenv("BENCH_SMOKE", "1")
        code, output = run(
            [
                "zoo",
                "--scenario",
                "fraud-ring",
                "--detector",
                "knn",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["quick"] is True
