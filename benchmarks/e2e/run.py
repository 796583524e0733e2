"""End-to-end serving benchmark: one command, four workloads, every metric named.

    python benchmarks/e2e/run.py [--seed N]             all workloads, end-to-end metrics
    python benchmarks/e2e/run.py --trace                ... plus the per-layer waterfall
    python benchmarks/e2e/run.py --ledger               ... and write ledger/seed<N>.json
    python benchmarks/e2e/run.py --aa                   the set twice; fails beyond the bounds
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                                        one workload (the form CI drives)

Every workload runs in a fresh process of its own, so set-up time and peak
RSS are per workload.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, FULL, SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: A child that has not finished by then is hung, not slow.
CHILD_TIMEOUT_SECONDS = 170

#: glibc gives every thread a malloc arena of its choosing, and the server
#: starts a thread per connection: which freed memory can go back to the
#: system then depends on thread timing, and the resident size of the very
#: same ``adhoc_onthefly`` run lands anywhere in 284..361 MB.  With one arena
#: it repeats within a few MB, which is what lets ``peak_rss_mb`` be bounded
#: at all.  One request is in flight at a time, so nothing contends for it.
ALLOCATOR_ENV = {"MALLOC_ARENA_MAX": "1"}


def _contract() -> dict:
    """``BENCHMARK.json``: the one place metric names, bounds and run length live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=list(WORKLOADS), help="run only this workload, in this process"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="request-generation seed")
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="record spans and report per-layer metrics",
    )
    parser.add_argument("--aa", action="store_true", help="run the set twice and compare")
    parser.add_argument("--ledger", action="store_true", help="write ledger/seed<N>.json")
    parser.add_argument(
        "--update-digests", action="store_true",
        help="re-pin the default seed's verification digests in workloads.py",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny corpus and sizes (self-tests)")
    return parser.parse_args(argv)


def _print_metrics(metrics: dict, indent: str = "") -> None:
    for name, metric in metrics.items():
        print(f"{indent}{name:<44} {metric['value']:>14.6g} {metric['unit']}")


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def _helper(script: str, *arguments: str) -> None:
    """Run one of the benchmark's own scripts to its end in a child process.

    The corpus build and the oracle both allocate far more than the serving
    stack does; in a child, none of it counts towards this process's peak RSS.
    """
    subprocess.run(
        [sys.executable, str(HERE / script), *arguments],
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=CHILD_TIMEOUT_SECONDS,
    )


def _run_one(args: argparse.Namespace) -> int:
    from harness import run_workload

    sizes = SMOKE if args.smoke else FULL
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    if not sizes.corpus_path.exists():
        _helper("workloads.py", sizes.name)
    oracle_started = time.perf_counter()
    oracle_path = sizes.oracle_path(workload.name, args.seed)
    _helper("oracle.py", sizes.name, workload.name, str(args.seed), str(oracle_path))
    oracle = json.loads(oracle_path.read_text(encoding="utf-8"))
    oracle_path.unlink()
    oracle_s = time.perf_counter() - oracle_started
    result = run_workload(
        workload,
        sizes,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        answers=oracle["answers"],
    )
    info = {"workload": workload.name, "seed": args.seed, "digest": oracle["digest"]}
    info.update(result.pop("info"))
    info["phase_s"] = {"oracle": round(oracle_s, 2), **info["phase_s"]}
    info["wall_s"] = round(time.perf_counter() - started, 2)
    _print_metrics(result["metrics"])
    # The digests pin the answers of the default seed at full size.
    pinned = sizes is FULL and args.seed == DEFAULT_SEED and not args.update_digests
    if pinned and oracle["digest"] != workload.digest:
        print(
            f"digest mismatch: got {oracle['digest']}, pinned {workload.digest}",
            file=sys.stderr,
        )
        result["correct"] = False
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# All workloads, one child process each
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace, workload: str, trace: int) -> tuple[dict, dict]:
    """Run one workload in a fresh process; returns ``(result, info)``."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    command += ["--smoke"] if args.smoke else []
    command += ["--update-digests"] if args.update_digests else []
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_SECONDS
    )
    lines = completed.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: no result (exit code {completed.returncode})")
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def _run_set(args: argparse.Namespace, *, trace: bool) -> dict:
    """Every workload once (twice with ``trace``: untraced, then traced)."""
    summary = {}
    for name in WORKLOADS:
        result, info = _child(args, name, 0)
        entry = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "samples": info["samples"],
            "digest": info["digest"],
            "end_to_end": result["metrics"],
        }
        print(
            f"{name}: {info['samples']} timed requests, {result['attempted']} attempted, "
            f"{result['failed']} failed, {info['wall_s']:.1f} s"
        )
        _print_metrics(result["metrics"], indent="  ")
        if trace:
            traced, _ = _child(args, name, 1)
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["per_layer"] = traced["metrics"]
            _print_waterfall(traced["metrics"])
        summary[name] = entry
    return summary


def _print_waterfall(metrics: dict) -> None:
    """Spans by self share, then the counters."""
    spans = sorted(
        (name[: -len(".self_share")] for name in metrics if name.endswith(".self_share")),
        key=lambda span: -metrics[f"{span}.self_share"]["value"],
    )
    print(f"  {'span':<34} {'self share':>10} {'cal ms/req':>11} {'calls/req':>10}")
    for span in spans:
        print(
            f"  {span:<34} {metrics[f'{span}.self_share']['value']:>10.4f} "
            f"{metrics[f'{span}.self_cal_ms_per_req']['value']:>11.4f} "
            f"{metrics[f'{span}.calls_per_req']['value']:>10.3f}"
        )
    suffixes = (".self_share", ".self_cal_ms_per_req", ".calls_per_req")
    _print_metrics(
        {name: m for name, m in metrics.items() if not name.endswith(suffixes)}, indent="  "
    )


def _final_line(summary: dict) -> str:
    return json.dumps(
        {
            "correct": all(entry["correct"] for entry in summary.values()),
            "attempted": sum(entry["attempted"] for entry in summary.values()),
            "failed": sum(entry["failed"] for entry in summary.values()),
            "metrics": {
                f"{workload}/{name}": metric
                for workload, entry in summary.items()
                for name, metric in entry["end_to_end"].items()
            },
        }
    )


def _disturbed(summary: dict) -> list[str]:
    """Why this run must not become a baseline (empty when it was a calm one).

    Two adjacent cycles of one process are the same work: when their
    calibrated means differ by more than tracing can explain, the machine's
    speed changed under them in a way the kernel did not follow.  A
    fresh-connection request that waits 20 ms was preempted.
    """
    reasons = []
    for name, entry in summary.items():
        layers = entry["per_layer"]
        overhead = layers["trace.overhead_ratio"]["value"]
        if not 0.9 <= overhead <= 1.25:
            reasons.append(f"{name}: trace.overhead_ratio {overhead:.3f} outside 0.9..1.25")
        stalls = layers["client.stall_share"]["value"]
        if not WORKLOADS[name].keep_alive and stalls > 0:
            reasons.append(f"{name}: client.stall_share {stalls:.4f} on fresh connections")
    return reasons


def _write_ledger(args: argparse.Namespace, summary: dict) -> None:
    import numpy
    import scipy

    from calibrate import CAL_REF_MS

    ledger = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "cal_ref_ms": CAL_REF_MS,
        "workloads": summary,
    }
    path = HERE / "ledger" / f"seed{args.seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"ledger written to {path.relative_to(ROOT)}")


def _pin_digests(summary: dict) -> None:
    """Rewrite the ``digest="..."`` of every workload in workloads.py."""
    path = HERE / "workloads.py"
    source = path.read_text(encoding="utf-8")
    for name, entry in summary.items():
        source, replaced = re.subn(
            rf'(name="{name}",.*?digest=")[0-9a-f]*(")',
            rf"\g<1>{entry['digest']}\g<2>",
            source,
            count=1,
            flags=re.DOTALL,
        )
        if replaced != 1:
            raise RuntimeError(f"no digest line found for workload {name!r}")
    path.write_text(source, encoding="utf-8")
    print("digests re-pinned in workloads.py")


def _compare_aa(first: dict, second: dict, bounds: dict) -> bool:
    """Print both sets side by side; True when every difference is in bound."""
    within = True
    print(f"{'workload/metric':<36} {'A':>12} {'B':>12} {'diff':>8} {'bound':>6}")
    for workload in first:
        if not (first[workload]["correct"] and second[workload]["correct"]):
            # A run with failed operations reports no metrics to compare.
            print(f"{workload}: failed operations, nothing to compare")
            within = False
            continue
        for name, bound in bounds.items():
            a = first[workload]["end_to_end"][name]["value"]
            b = second[workload]["end_to_end"][name]["value"]
            difference = abs(b - a) / a
            flag = "" if difference <= bound else "  EXCEEDS"
            within = within and difference <= bound
            print(
                f"{workload + '/' + name:<36} {a:>12.5g} {b:>12.5g} "
                f"{difference:>8.2%} {bound:>6.0%}{flag}"
            )
    return within


def _run_all(args: argparse.Namespace, contract: dict) -> int:
    if args.update_digests:
        args.seconds = 1.0
    summary = _run_set(args, trace=bool(args.trace) or args.ledger)
    correct = all(entry["correct"] for entry in summary.values())
    if args.update_digests:
        _pin_digests(summary)
    if args.aa:
        second = _run_set(args, trace=False)
        correct = correct and all(entry["correct"] for entry in second.values())
        bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
        correct = _compare_aa(summary, second, bounds) and correct
    if args.ledger and correct:
        reasons = _disturbed(summary)
        if reasons:
            print("ledger not written, the run was disturbed:", *reasons, sep="\n  ")
            correct = False
        else:
            _write_ledger(args, summary)
    print(_final_line(summary))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    contract = _contract()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(contract["run_seconds"])
    if args.workload is not None:
        if any(os.environ.get(name) != value for name, value in ALLOCATOR_ENV.items()):
            # The allocator reads its settings when the process starts.
            os.execve(
                sys.executable,
                [sys.executable, str(HERE / "run.py"), *argv],
                {**os.environ, **ALLOCATOR_ENV},
            )
        return _run_one(args)
    return _run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
