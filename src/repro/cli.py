"""Command-line interface: the outlier-detection system as a tool.

Subcommands::

    repro generate --preset ego --out corpus.json [--seed 0]
    repro query    --network corpus.json "FIND OUTLIERS ..." [--strategy pm]
    repro suggest  --network corpus.json "FIND OUTLIERS ..."
    repro explain  --network corpus.json "FIND OUTLIERS ..."
    repro schema   --network corpus.json
    repro shell    --network corpus.json
    repro serve    --network corpus.json --port 8080 --workers 8
    repro route    --network corpus.json --replicas 3 --port 8080
    repro zoo      [--scenario NAME] [--detector NAME] [--quick] [--out FILE]

``repro zoo`` runs the detector-zoo evaluation grid — NetOut and every
baseline over the planted-outlier scenarios — and reports ROC AUC,
precision@k, and average precision per cell (see ``docs/detector_zoo.md``).

``repro serve`` runs the concurrent query service of
:mod:`repro.service` behind a stdlib JSON/HTTP frontend — see
``docs/service.md`` for endpoints and tuning.

``repro route`` runs a supervised fleet of ``repro serve`` replicas
behind a consistent-hash router with health probes, per-replica circuit
breakers, and failover — the fault-tolerant serving tier (see
``docs/service.md``, "Replica routing & failover").

``repro shell`` is a small REPL: enter queries terminated by ``;`` and use
dot-commands (``.help``, ``.schema``, ``.strategy pm``, ``.measure cossim``,
``.suggest``, ``.quit``) to steer the session — the interactive,
exploratory usage mode the paper's introduction motivates.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.datagen.security import SecurityNetworkGenerator
from repro.datagen.synthetic import BibliographicNetworkGenerator, hub_ego_corpus
from repro.engine.advisor import QueryAdvisor
from repro.engine.detector import OutlierDetector
from repro.exceptions import ReproError
from repro.hin.io import load_json, save_json
from repro.hin.network import HeterogeneousInformationNetwork
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

    def add_network_and_query(sub, with_query=True):
        sub.add_argument("--network", required=True, help="network JSON path")
        if with_query:
            sub.add_argument("query", help="outlier query text")
        sub.add_argument(
            "--strategy", choices=("baseline", "pm", "spm"), default="pm"
        )
        sub.add_argument(
            "--measure", default="netout", help="outlierness measure name"
        )

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
    serve.add_argument("--network", required=True, help="network JSON path")
    serve.add_argument(
        "--strategy", choices=("baseline", "pm", "spm"), default="pm"
    )
    serve.add_argument(
        "--measure", default="netout", help="outlierness measure name"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 binds an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="workers executing queries over the shared index; 0 auto-sizes "
        "to the physical-core estimate (os.cpu_count()/2, floor 1)",
    )
    serve.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="execution backend: 'thread' shares the engine in-process; "
        "'process' spawns workers over zero-copy shared-memory CSR views "
        "(results are identical; see docs/service.md)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="requests allowed to wait beyond the busy workers; requests "
        "past workers+queue-depth are shed with HTTP 429",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request execution deadline (HTTP 504 on overrun)",
    )
    serve.add_argument(
        "--cache-ttl",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="result cache entry lifetime; 0 disables the result cache",
    )
    serve.add_argument(
        "--row-cache-rows",
        type=int,
        default=4096,
        metavar="N",
        help="shared LRU row cache capacity in (meta-path, vertex) rows; "
        "0 disables it",
    )
    serve.add_argument(
        "--subpath-cache-mb",
        type=float,
        default=32.0,
        metavar="MB",
        help="shared cache of length-2 sub-path products reused across "
        "concurrent queries whose meta-paths overlap; 0 disables it",
    )
    serve.add_argument(
        "--adaptive",
        action="store_true",
        help="enable workload-adaptive re-indexing (spm strategy only): "
        "a background thread mines admitted queries and atomically "
        "hot-swaps an SPM index built around the observed hot vertices",
    )
    serve.add_argument(
        "--reindex-interval",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="period of the adaptive re-index cycle (with --adaptive)",
    )
    serve.add_argument(
        "--reindex-min-queries",
        type=int,
        default=32,
        metavar="N",
        help="new admissions required before a re-index cycle re-plans",
    )
    serve.add_argument(
        "--admission-log",
        default=None,
        metavar="PATH",
        help="JSONL file the admission log spills to for offline workload "
        "inspection (with --adaptive)",
    )
    serve.add_argument(
        "--max-index-mb",
        type=float,
        default=None,
        metavar="MB",
        help="byte budget of adaptively rebuilt SPM indexes (hottest "
        "vertices first; default unbounded)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after serving N HTTP requests (smoke tests)",
    )
    serve.add_argument(
        "--storage",
        choices=("ram", "mmap"),
        default="ram",
        help="array tier: 'ram' holds adjacency and index in memory; "
        "'mmap' spills them to file-backed buffers and (with --strategy "
        "pm) builds the index out-of-core in bounded row blocks, so "
        "networks larger than RAM still serve (see docs/scale.md)",
    )
    serve.add_argument(
        "--storage-dir",
        default=None,
        metavar="DIR",
        help="directory for mmap-tier array files and file-backed worker "
        "segments (a private temp dir when omitted)",
    )
    serve.add_argument(
        "--index-build-block-rows",
        type=int,
        default=8192,
        metavar="N",
        help="rows per block of the out-of-core index build (with "
        "--storage mmap); smaller blocks bound peak RAM tighter",
    )
    serve.add_argument(
        "--max-build-memory-mb",
        type=float,
        default=None,
        metavar="MB",
        help="approximate per-block memory budget for the out-of-core "
        "index build; shrinks the effective block size when needed",
    )

    route = commands.add_parser(
        "route",
        help="run supervised serve replicas behind a consistent-hash router",
    )
    route.add_argument("--network", required=True, help="network JSON path")
    route.add_argument(
        "--replicas",
        type=int,
        default=2,
        metavar="N",
        help="number of supervised `repro serve` replica processes",
    )
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument(
        "--port",
        type=int,
        default=8080,
        help="router listen port (0 binds an ephemeral port and prints it)",
    )
    # Per-replica serve knobs, forwarded verbatim to every replica argv.
    route.add_argument(
        "--strategy", choices=("baseline", "pm", "spm"), default="pm"
    )
    route.add_argument(
        "--measure", default="netout", help="outlierness measure name"
    )
    route.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="execution backend of each replica",
    )
    route.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="query workers per replica (0 auto-sizes)",
    )
    route.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="admission queue depth per replica (429 beyond it)",
    )
    route.add_argument(
        "--cache-ttl",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="replica result-cache TTL; 0 disables the result cache",
    )
    route.add_argument(
        "--storage",
        choices=("ram", "mmap"),
        default="ram",
        help="array tier of each replica (forwarded to `repro serve`)",
    )
    route.add_argument(
        "--index-build-block-rows",
        type=int,
        default=8192,
        metavar="N",
        help="out-of-core build block size per replica (with mmap)",
    )
    route.add_argument(
        "--max-build-memory-mb",
        type=float,
        default=None,
        metavar="MB",
        help="per-block build memory budget per replica (with mmap)",
    )
    # Router knobs.
    route.add_argument(
        "--virtual-nodes",
        type=int,
        default=64,
        metavar="N",
        help="virtual nodes per replica on the consistent-hash ring",
    )
    route.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="health probe sweep interval (bounds dead-replica routing)",
    )
    route.add_argument(
        "--attempt-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-attempt connect/read timeout toward a replica",
    )
    route.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="distinct replicas tried per request before 503",
    )
    route.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive failures opening a replica's circuit breaker",
    )
    route.add_argument(
        "--breaker-reset",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="open-breaker cool-down before a half-open trial",
    )
    # Supervisor knobs.
    route.add_argument(
        "--restart-base-delay",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="first restart backoff (doubles per consecutive restart)",
    )
    route.add_argument(
        "--max-restarts-in-window",
        type=int,
        default=5,
        metavar="N",
        help="restarts tolerated per window before quarantine",
    )
    route.add_argument(
        "--restart-window",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="sliding window for the restart budget",
    )
    route.add_argument(
        "--stagger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="delay between initial replica launches",
    )
    route.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after routing N HTTP requests (smoke tests)",
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


def _command_workload(args, out) -> int:
    from repro.datagen.workloads import generate_query_set
    from repro.engine.latency import LatencyReport
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
        kwargs = {}
        if strategy_name == "spm":
            kwargs = {"spm_workload": queries, "spm_threshold": 0.01}
        detector = OutlierDetector(
            network,
            strategy=strategy_name,
            measure=args.measure,
            resilience=policy,
            **kwargs,
        )
        batch = detector.detect_many(queries, skip_failures=True)
        results, stats = batch
        report = LatencyReport.from_results(results)
        print(f"{strategy_name:>9}  {report.describe()}", file=out)
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


def _command_serve(args, out) -> int:
    import signal
    import threading

    from repro.service import QueryService, ServiceConfig, make_server

    storage = getattr(args, "storage", "ram")
    storage_dir = getattr(args, "storage_dir", None)
    if not Path(args.network).exists():
        raise ReproError(f"network file not found: {args.network}")
    network = load_json(args.network, storage=storage, storage_dir=storage_dir)
    config = ServiceConfig(
        workers=args.workers,
        backend=args.backend,
        queue_depth=args.queue_depth,
        timeout_seconds=args.timeout,
        cache_ttl_seconds=args.cache_ttl if args.cache_ttl > 0 else None,
        cache_max_entries=0 if args.cache_ttl == 0 else 1024,
        subpath_cache_mb=args.subpath_cache_mb,
        adaptive=args.adaptive,
        reindex_interval_seconds=args.reindex_interval,
        reindex_min_queries=args.reindex_min_queries,
        admission_log_path=args.admission_log,
        max_index_mb=args.max_index_mb,
        storage=storage,
        storage_dir=storage_dir,
        index_build_block_rows=args.index_build_block_rows,
        max_build_memory_mb=args.max_build_memory_mb,
    )
    index = None
    if storage == "mmap" and args.strategy == "pm":
        # Build the full PM index out-of-core, in bounded row blocks, and
        # serve it through read-only file-backed views — the path that
        # keeps million-vertex networks off the RAM budget entirely.
        from repro.engine.index import build_pm_index
        from repro.hin.storage import MmapArrayStore

        store_dir = None
        if storage_dir is not None:
            store_dir = str(Path(storage_dir) / "pm-index")
            Path(store_dir).mkdir(parents=True, exist_ok=True)
        index = build_pm_index(
            network,
            block_rows=args.index_build_block_rows,
            max_build_memory_mb=args.max_build_memory_mb,
            store=MmapArrayStore(store_dir),
        )
    service = QueryService.from_network(
        network,
        config,
        strategy=args.strategy,
        measure=args.measure,
        index=index,
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
    # flips to draining first, so /healthz answers 503 "draining" and the
    # replica router pulls this replica from rotation, then the socket
    # stays up until in-flight queries finish (bounded) before shutdown.
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
        f"queue depth {args.queue_depth}, "
        f"index {service.handle.index_size_bytes() / 1e6:.2f} MB"
        f"{', adaptive reindex every ' + format(args.reindex_interval, 'g') + 's' if args.adaptive else ''})",
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
        # backend, the shared-memory segment) go away.
        service.close(drain=True)
        print(
            f"served {server.served_count} requests; shut down cleanly",
            file=out,
            flush=True,
        )
    return 0


def _command_route(args, out) -> int:
    import os
    import signal
    import threading

    import repro
    from repro.service import (
        HealthProber,
        ReplicaSupervisor,
        Router,
        RouterConfig,
        SupervisorConfig,
        make_router_server,
    )

    if not Path(args.network).exists():
        raise ReproError(f"network file not found: {args.network}")

    # Replica children run `python -m repro`; make sure they can import it
    # even when the router itself was started with PYTHONPATH tricks.
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else package_root
    )

    serve_args = [
        "--strategy",
        args.strategy,
        "--measure",
        args.measure,
        "--backend",
        args.backend,
        "--workers",
        str(args.workers),
        "--queue-depth",
        str(args.queue_depth),
        "--cache-ttl",
        str(args.cache_ttl),
        "--storage",
        args.storage,
        "--index-build-block-rows",
        str(args.index_build_block_rows),
    ]
    if args.max_build_memory_mb is not None:
        serve_args += ["--max-build-memory-mb", str(args.max_build_memory_mb)]
    commands = ReplicaSupervisor.serve_commands(
        sys.executable, args.network, args.replicas, serve_args=serve_args
    )
    router_config = RouterConfig(
        virtual_nodes=args.virtual_nodes,
        probe_interval_seconds=args.probe_interval,
        attempt_timeout_seconds=args.attempt_timeout,
        max_attempts=args.max_attempts,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_seconds=args.breaker_reset,
    )
    supervisor_config = SupervisorConfig(
        restart_base_delay_seconds=args.restart_base_delay,
        max_restarts_in_window=args.max_restarts_in_window,
        restart_window_seconds=args.restart_window,
        stagger_seconds=args.stagger,
    )
    router = Router(list(commands), router_config)
    supervisor = ReplicaSupervisor(
        commands,
        supervisor_config,
        on_up=router.set_replica_address,
        on_down=router.mark_replica_down,
        env=env,
    )
    supervisor.start()
    prober = HealthProber(router)
    prober.start()
    server = make_router_server(
        router,
        host=args.host,
        port=args.port,
        supervisor=supervisor,
        max_requests=args.max_requests,
    )
    if threading.current_thread() is threading.main_thread():
        signal.signal(
            signal.SIGTERM,
            lambda signum, frame: threading.Thread(
                target=server.shutdown, daemon=True
            ).start(),
        )
    host, port = server.server_address[:2]
    print(
        f"routing {args.network} on http://{host}:{port} "
        f"({args.replicas} replicas, {args.backend} backend, "
        f"{args.max_attempts} attempts, "
        f"probe every {args.probe_interval:g}s)",
        file=out,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()
        prober.stop()
        supervisor.stop()
        print(
            f"routed {server.served_count} requests; shut down cleanly",
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
        "route": lambda: _command_route(args, out),
        "zoo": lambda: _command_zoo(args, out),
    }
    try:
        return handlers[args.command]()
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
