"""Command-line interface: the outlier-detection system as a tool.

Subcommands::

    repro generate --preset ego --out corpus.json [--seed 0]
    repro query    --network corpus.json "FIND OUTLIERS ..." [--strategy pm]
    repro suggest  --network corpus.json "FIND OUTLIERS ..."
    repro explain  --network corpus.json "FIND OUTLIERS ..."
    repro schema   --network corpus.json
    repro shell    --network corpus.json
    repro serve    --network corpus.json --port 8080 --workers 8
    repro zoo      [--scenario NAME] [--detector NAME] [--quick] [--out FILE]

``repro zoo`` runs the detector-zoo evaluation grid — NetOut and every
baseline over the planted-outlier scenarios — and reports ROC AUC,
precision@k, and average precision per cell (see ``docs/detector_zoo.md``).

``repro serve`` runs the concurrent query service of
:mod:`repro.service` behind a stdlib JSON/HTTP frontend — see
``docs/service.md`` for endpoints and tuning.

``repro shell`` is a small REPL: enter queries terminated by ``;`` and use
dot-commands (``.help``, ``.schema``, ``.strategy pm``, ``.measure cossim``,
``.suggest``, ``.quit``) to steer the session — the interactive,
exploratory usage mode the paper's introduction motivates.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from repro.datagen.security import SecurityNetworkGenerator
from repro.datagen.synthetic import BibliographicNetworkGenerator, hub_ego_corpus
from repro.engine.advisor import QueryAdvisor
from repro.engine.detector import OutlierDetector
from repro.exceptions import ExecutionError, ReproError
from repro.hin.io import load_json, save_json
from repro.hin.network import HeterogeneousInformationNetwork
from repro.service.config import ServiceConfig, add_settings, settings_from_args
from repro.viz import score_distribution

__all__ = ["main", "build_parser"]

PRESETS = ("bibliographic", "ego", "security")


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query-based outlier detection in heterogeneous "
        "information networks (EDBT 2015 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic corpus and save it as JSON"
    )
    generate.add_argument("--preset", choices=PRESETS, default="ego")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output JSON path")

    def add_network_and_query(sub, with_query=True) -> None:
        sub.add_argument("--network", required=True, help="network JSON path")
        if with_query:
            sub.add_argument("query", help="outlier query text")
        sub.add_argument("--strategy", choices=("baseline", "pm", "spm"), default="pm")
        sub.add_argument("--measure", default="netout", help="outlierness measure name")

    def add_resilience_flags(sub):
        sub.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-query time budget; on overrun the query degrades "
            "(partial result) or fails fast instead of running forever",
        )
        sub.add_argument(
            "--max-memory-mb",
            type=float,
            default=None,
            metavar="MB",
            help="refuse index builds whose estimated size exceeds this "
            "budget, degrading to a cheaper strategy instead",
        )

    query = commands.add_parser("query", help="run one outlier query")
    add_network_and_query(query)
    add_resilience_flags(query)
    query.add_argument(
        "--distribution",
        action="store_true",
        help="also print the candidate score distribution",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="also print per-phase execution statistics",
    )
    query.add_argument(
        "--format",
        choices=("table", "json", "csv", "html"),
        default="table",
        help="result rendering (default: table)",
    )
    query.add_argument(
        "--out",
        default=None,
        help="write the rendering to a file instead of stdout "
        "(required for --format html)",
    )

    workload = commands.add_parser(
        "workload",
        help="run a Table 4 template workload and report latency per strategy",
    )
    workload.add_argument("--network", required=True, help="network JSON path")
    workload.add_argument("--template", choices=("Q1", "Q2", "Q3"), default="Q1")
    workload.add_argument("--count", type=int, default=50, help="queries to run")
    workload.add_argument(
        "--queries-file",
        default=None,
        help="replay queries from a file (';'-separated) instead of "
        "generating them from the template",
    )
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument(
        "--strategies",
        default="baseline,pm,spm",
        help="comma-separated strategies to compare",
    )
    workload.add_argument("--measure", default="netout")
    add_resilience_flags(workload)

    explain = commands.add_parser("explain", help="show a query's execution plan")
    add_network_and_query(explain)

    suggest = commands.add_parser(
        "suggest", help="suggest more interesting feature meta-paths"
    )
    add_network_and_query(suggest)
    suggest.add_argument("--max-suggestions", type=int, default=5)

    schema = commands.add_parser("schema", help="print a network's schema")
    schema.add_argument("--network", required=True)

    stats = commands.add_parser(
        "stats", help="print descriptive statistics of a network"
    )
    stats.add_argument("--network", required=True)

    shell = commands.add_parser("shell", help="interactive query shell")
    add_network_and_query(shell, with_query=False)

    serve = commands.add_parser(
        "serve", help="run the concurrent query service (JSON over HTTP)"
    )
    add_network_and_query(serve, with_query=False)
    serve.add_argument(
        "--row-cache-rows",
        type=int,
        default=4096,
        metavar="N",
        help="shared LRU row cache capacity in (meta-path, vertex) rows; "
        "0 disables it",
    )
    add_settings(serve, ServiceConfig)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 binds an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after answering N HTTP requests (smoke tests)",
    )

    zoo = commands.add_parser(
        "zoo",
        help="run the detector-zoo evaluation grid on planted-outlier "
        "scenarios",
    )
    zoo.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario to run (repeatable; default: all). "
        "Pass 'list' to print the registered scenarios",
    )
    zoo.add_argument(
        "--detector",
        action="append",
        default=None,
        metavar="NAME",
        help="detector to run (repeatable; default: all). "
        "Pass 'list' to print the registered detectors",
    )
    zoo.add_argument(
        "--seeds",
        default="0",
        help="comma-separated scenario seeds (default: 0)",
    )
    zoo.add_argument(
        "--k", type=int, default=5, help="precision@k cut-off (default: 5)"
    )
    zoo.add_argument(
        "--quick",
        action="store_true",
        help="small scenario sizes (CI smoke; also via BENCH_SMOKE=1)",
    )
    zoo.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the full JSON report to FILE",
    )

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _load_network(path: str) -> HeterogeneousInformationNetwork:
    if not Path(path).exists():
        raise ReproError(f"network file not found: {path}")
    return load_json(path)


def _resilience_policy(args):
    """A policy from ``--timeout`` / ``--max-memory-mb``, or ``None``."""
    timeout = getattr(args, "timeout", None)
    max_memory_mb = getattr(args, "max_memory_mb", None)
    if timeout is None and max_memory_mb is None:
        return None
    from repro.engine.resilience import ResiliencePolicy

    return ResiliencePolicy(timeout_seconds=timeout, max_memory_mb=max_memory_mb)


def _command_generate(args, out) -> int:
    if args.preset == "bibliographic":
        network = BibliographicNetworkGenerator(seed=args.seed).build_network()
    elif args.preset == "ego":
        from repro.datagen.synthetic import EgoNetworkSpec

        network = hub_ego_corpus(spec=EgoNetworkSpec(seed=args.seed)).network
    else:
        network = SecurityNetworkGenerator(seed=args.seed).generate().network
    save_json(network, args.out)
    print(f"wrote {network} to {args.out}", file=out)
    return 0


def _command_query(args, out) -> int:
    import warnings

    from repro.exceptions import DegradedResultWarning

    network = _load_network(args.network)
    detector = OutlierDetector(
        network,
        strategy=args.strategy,
        measure=args.measure,
        resilience=_resilience_policy(args),
    )
    with warnings.catch_warnings():
        # The degraded flag is reported explicitly below; the warning would
        # only duplicate it on stderr.
        warnings.simplefilter("ignore", DegradedResultWarning)
        result = detector.detect(args.query)
    if result.degraded:
        print(f"note: degraded result ({result.degradation_reason})", file=out)
    output_format = getattr(args, "format", "table")
    out_path = getattr(args, "out", None)
    if output_format == "html":
        from repro.report import write_html_report

        if out_path is None:
            raise ReproError("--format html requires --out FILE")
        write_html_report(result, out_path, query_text=args.query)
        print(f"wrote HTML report to {out_path}", file=out)
    elif output_format == "json":
        rendering = result.to_json()
        if out_path:
            Path(out_path).write_text(rendering + "\n", encoding="utf-8")
            print(f"wrote JSON to {out_path}", file=out)
        else:
            print(rendering, file=out)
    elif output_format == "csv":
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                result.to_csv(handle)
            print(f"wrote CSV to {out_path}", file=out)
        else:
            result.to_csv(out)
    else:
        print(result.to_table(), file=out)
    if getattr(args, "distribution", False):
        print(file=out)
        print(score_distribution(result), file=out)
    if getattr(args, "stats", False) and result.stats is not None:
        print(file=out)
        print(
            f"wall time: {result.stats.wall_seconds * 1e3:.2f} ms", file=out
        )
        for phase, seconds in result.stats.breakdown().items():
            print(f"  {phase:<26s} {seconds * 1e3:8.2f} ms", file=out)
    return 0


def _latency_line(seconds) -> str:
    """Count, mean, p50/p90/p99 and max of per-query wall times, in ms."""
    values = np.asarray(seconds, dtype=float)
    if values.size == 0:
        raise ExecutionError("cannot summarize an empty latency sample")
    p50, p90, p99 = np.percentile(values, (50.0, 90.0, 99.0)) * 1e3
    return (
        f"n={values.size}  mean={values.mean() * 1e3:.2f}ms  "
        f"p50={p50:.2f}ms  p90={p90:.2f}ms  "
        f"p99={p99:.2f}ms  max={values.max() * 1e3:.2f}ms"
    )


def _command_workload(args, out) -> int:
    from repro.datagen.workloads import generate_query_set
    from repro.query.templates import QUERY_TEMPLATES

    network = _load_network(args.network)
    if args.queries_file:
        if not Path(args.queries_file).exists():
            raise ReproError(f"queries file not found: {args.queries_file}")
        text = Path(args.queries_file).read_text(encoding="utf-8")
        # Drop comment lines first, then split on the statement terminator.
        stripped = "\n".join(
            line for line in text.splitlines()
            if not line.lstrip().startswith("--")
        )
        queries = [
            chunk.strip() + ";" for chunk in stripped.split(";") if chunk.strip()
        ]
        if not queries:
            raise ReproError(f"no queries found in {args.queries_file}")
        source = f"file {args.queries_file}"
    else:
        template = next(t for t in QUERY_TEMPLATES if t.name == args.template)
        queries = generate_query_set(network, template, args.count, seed=args.seed)
        source = f"template {template.name}"
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        raise ReproError("no strategies given")
    print(
        f"{source}, {len(queries)} queries, measure {args.measure}",
        file=out,
    )
    policy = _resilience_policy(args)
    for strategy_name in strategies:
        # The workload selects SPM's vertices; other strategies ignore it.
        detector = OutlierDetector(
            network,
            strategy=strategy_name,
            measure=args.measure,
            resilience=policy,
            spm_workload=queries,
        )
        batch = detector.detect_many(queries)
        results, stats = batch
        latency = _latency_line([result.stats.wall_seconds for result in results])
        print(f"{strategy_name:>9}  {latency}", file=out)
        print(
            f"{'':>9}  total={stats.wall_seconds * 1e3:.1f}ms  "
            f"index={detector.index_size_bytes() / 1e6:.2f}MB",
            file=out,
        )
        if batch.errors:
            print(
                f"{'':>9}  {len(batch.errors)} of {len(queries)} queries "
                "failed (first: "
                f"{next(iter(batch.errors.values()))})",
                file=out,
            )
    return 0


def _command_explain(args, out) -> int:
    network = _load_network(args.network)
    detector = OutlierDetector(network, strategy=args.strategy, measure=args.measure)
    print(detector.explain(args.query).describe(), file=out)
    return 0


def _command_suggest(args, out) -> int:
    network = _load_network(args.network)
    detector = OutlierDetector(network, strategy=args.strategy, measure=args.measure)
    advisor = QueryAdvisor(detector.strategy, measure=args.measure)
    suggestions = advisor.suggest(args.query, max_suggestions=args.max_suggestions)
    if not suggestions:
        print("(no suggestions)", file=out)
        return 0
    for suggestion in suggestions:
        print(
            f"[interestingness {suggestion.score:.3f}] "
            f"JUDGED BY {suggestion.feature_path}",
            file=out,
        )
        print(suggestion.result.to_table(max_rows=3), file=out)
        print(file=out)
    return 0


def _command_stats(args, out) -> int:
    from repro.hin.stats import network_summary

    network = _load_network(args.network)
    print(network_summary(network).describe(), file=out)
    return 0


def _command_schema(args, out) -> int:
    network = _load_network(args.network)
    schema = network.schema
    print("vertex types:", file=out)
    for vertex_type in sorted(schema.vertex_types):
        print(f"  {vertex_type} ({network.num_vertices(vertex_type)} vertices)", file=out)
    print("edge types:", file=out)
    seen = set()
    for edge_type in sorted(schema.edge_types, key=str):
        pair = frozenset((edge_type.source, edge_type.target))
        if pair in seen:
            continue
        seen.add(pair)
        print(f"  {edge_type.source} -- {edge_type.target}", file=out)
    return 0


def _service_config(args):
    """The :class:`ServiceConfig` a parsed ``serve`` line describes."""
    config = settings_from_args(ServiceConfig, args)
    if config.cache_ttl_seconds == 0:
        # `--cache-ttl 0` switches the result cache off outright instead of
        # keeping one whose every entry is stale on arrival.
        config = dataclasses.replace(
            config, cache_ttl_seconds=None, cache_max_entries=0
        )
    return config


def _command_serve(args, out) -> int:
    import signal
    import threading

    from repro.service import QueryService, make_server

    config = _service_config(args)
    if not Path(args.network).exists():
        raise ReproError(f"network file not found: {args.network}")
    network = load_json(
        args.network, storage=config.storage, storage_dir=config.storage_dir
    )
    service = QueryService.from_network(
        network,
        config,
        strategy=args.strategy,
        measure=args.measure,
        row_cache_rows=args.row_cache_rows,
        resilience=_resilience_policy(args),
    )
    server = make_server(
        service,
        host=args.host,
        port=args.port,
        max_requests=args.max_requests,
    )
    # SIGTERM (systemd/container stop) takes the same clean path as
    # max-requests self-shutdown and Ctrl-C — but drain-aware: the service
    # flips to draining first, so /healthz answers 503 "draining" and a
    # load balancer stops sending new queries, then the socket stays up
    # until in-flight queries finish (bounded) before shutdown.
    # Signals only deliver to the main thread; when serve runs embedded on
    # another thread (tests), skip installation.
    def _drain_then_shutdown() -> None:
        import time as _time

        service.begin_drain()
        deadline = _time.monotonic() + 30.0
        while service.admission.in_flight > 0 and _time.monotonic() < deadline:
            _time.sleep(0.05)
        server.shutdown()

    if threading.current_thread() is threading.main_thread():
        signal.signal(
            signal.SIGTERM,
            lambda signum, frame: threading.Thread(
                target=_drain_then_shutdown, daemon=True
            ).start(),
        )
    host, port = server.server_address[:2]
    print(
        f"serving {args.network} on http://{host}:{port} "
        f"({service.handle.fingerprint}, {config.backend} backend, "
        f"{config.workers} workers"
        f"{' [auto]' if args.workers == 0 else ''}, "
        f"queue depth {config.queue_depth}, "
        f"index {service.handle.index_size_bytes() / 1e6:.2f} MB"
        f"{', adaptive reindex every ' + format(config.reindex_interval_seconds, 'g') + 's' if config.adaptive else ''})",
        file=out,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()
        # Drain before teardown: in-flight futures resolve and their
        # admission slots release before workers (and, for the process
        # backend, the worker segment) go away.
        service.close(drain=True)
        print(
            f"served {server.served_count} requests; shut down cleanly",
            file=out,
            flush=True,
        )
    return 0


def _command_zoo(args, out) -> int:
    import json
    import os

    from repro.zoo import (
        ZooRunConfig,
        available_detectors,
        available_scenarios,
        get_detector_spec,
        get_scenario,
        render_summary,
        run_zoo,
    )

    if args.scenario and "list" in args.scenario:
        for name in available_scenarios():
            print(f"{name:<20} {get_scenario(name).summary}", file=out)
        return 0
    if args.detector and "list" in args.detector:
        for name in available_detectors():
            print(f"{name:<10} {get_detector_spec(name).summary}", file=out)
        return 0

    try:
        seeds = tuple(
            int(chunk) for chunk in args.seeds.split(",") if chunk.strip()
        )
    except ValueError:
        raise ReproError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    # Validate names up front for a clean error instead of a mid-run one.
    for name in args.scenario or ():
        get_scenario(name)
    for name in args.detector or ():
        get_detector_spec(name)
    config = ZooRunConfig(
        scenarios=tuple(args.scenario or ()),
        detectors=tuple(args.detector or ()),
        seeds=seeds,
        k=args.k,
        quick=args.quick or os.environ.get("BENCH_SMOKE") == "1",
    )
    report = run_zoo(config)
    print(render_summary(report), file=out)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote report to {args.out}", file=out)
    return 0


# ----------------------------------------------------------------------
# Shell
# ----------------------------------------------------------------------
_SHELL_HELP = """\
enter an outlier query ending with ';', or a dot-command:
  .help                 this message
  .schema               show vertex and edge types
  .strategy NAME        switch strategy (baseline / pm / spm)
  .measure NAME         switch measure (netout / pathsim / cossim / ...)
  .explain QUERY;       show the execution plan for a query
  .suggest QUERY;       suggest alternative feature meta-paths
  .quit                 exit"""


class _Shell:
    """The REPL behind ``repro shell`` (separated for testability)."""

    def __init__(self, network, strategy: str, measure: str, out) -> None:
        self.network = network
        self.measure = measure
        self.strategy_name = strategy
        self.detector = OutlierDetector(network, strategy=strategy, measure=measure)
        self.out = out

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def handle(self, line: str) -> bool:
        """Process one complete input; returns False to exit the loop."""
        line = line.strip()
        if not line:
            return True
        try:
            if line.startswith("."):
                return self._handle_dot(line)
            result = self.detector.detect(line)
            self._print(result.to_table())
        except ReproError as error:
            self._print(f"error: {error}")
        return True

    def _handle_dot(self, line: str) -> bool:
        command, __, rest = line.partition(" ")
        rest = rest.strip()
        if command in (".quit", ".exit"):
            return False
        if command == ".help":
            self._print(_SHELL_HELP)
        elif command == ".schema":
            for vertex_type in sorted(self.network.schema.vertex_types):
                count = self.network.num_vertices(vertex_type)
                self._print(f"  {vertex_type} ({count} vertices)")
        elif command == ".strategy":
            self.strategy_name = rest or self.strategy_name
            self.detector = OutlierDetector(
                self.network, strategy=self.strategy_name, measure=self.measure
            )
            self._print(f"strategy = {self.strategy_name}")
        elif command == ".measure":
            self.measure = rest or self.measure
            self.detector = OutlierDetector(
                self.network, strategy=self.strategy_name, measure=self.measure
            )
            self._print(f"measure = {self.measure}")
        elif command == ".explain":
            self._print(self.detector.explain(rest).describe())
        elif command == ".suggest":
            advisor = QueryAdvisor(self.detector.strategy, measure=self.measure)
            for suggestion in advisor.suggest(rest, max_suggestions=3):
                self._print(
                    f"[interestingness {suggestion.score:.3f}] "
                    f"JUDGED BY {suggestion.feature_path}"
                )
        else:
            self._print(f"unknown command {command!r}; try .help")
        return True


def _command_shell(args, out, stdin) -> int:
    network = _load_network(args.network)
    shell = _Shell(network, args.strategy, args.measure, out)
    print("repro shell — .help for commands, .quit to exit", file=out)
    buffer: list[str] = []
    for raw in stdin:
        line = raw.rstrip("\n")
        if line.strip().startswith("."):
            if not shell.handle(line):
                break
            continue
        buffer.append(line)
        if line.rstrip().endswith(";"):
            if not shell.handle("\n".join(buffer)):
                break
            buffer = []
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None, *, out=None, stdin=None) -> int:
    """CLI entry point; returns the process exit code.

    ``out`` and ``stdin`` are injectable for tests (default: real streams).
    """
    out = out if out is not None else sys.stdout
    stdin = stdin if stdin is not None else sys.stdin
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": lambda: _command_generate(args, out),
        "query": lambda: _command_query(args, out),
        "workload": lambda: _command_workload(args, out),
        "explain": lambda: _command_explain(args, out),
        "suggest": lambda: _command_suggest(args, out),
        "schema": lambda: _command_schema(args, out),
        "stats": lambda: _command_stats(args, out),
        "shell": lambda: _command_shell(args, out, stdin),
        "serve": lambda: _command_serve(args, out),
        "zoo": lambda: _command_zoo(args, out),
    }
    try:
        return handlers[args.command]()
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
