#!/usr/bin/env python
"""List the functions under ``src/repro`` that no entry point reaches.

Run from anywhere (stdlib only; several minutes on two cores)::

    python scripts/reach.py            # every entry point
    python scripts/reach.py examples/  # only entry points whose name has it

Each entry point runs as a subprocess with a temporary ``sitecustomize.py``
first on ``PYTHONPATH``.  Through ``sys.setprofile`` and
``threading.setprofile`` it records the first call of every code object
under ``src/repro`` and appends it to one file per process id, so spawned
workers and ``repro serve`` subprocesses are recorded too.  Children that set
their own ``PYTHONPATH`` (the e2e corpus and oracle helpers) are not.

The records are matched against an ``ast`` walk of ``src/repro``; a
decorated function's code object starts at its first decorator line.  The
script prints the functions reached per entry point, then the unreached
functions per module with their line spans.  An entry point that exits
non-zero is re-run once without the profiler and marked "fails" or "fails
only under the profiler" (a timing assertion the profiler's overhead
trips).  It is a census, not a test, and is not part of CI.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
QUERY = ('FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author '
         "JUDGED BY author.paper.venue TOP 5;")

RECORDER = '''\
import os, sys, threading
_seen = set()
def _record(frame, event, arg):
    if event == "call" and frame.f_code not in _seen:
        code = frame.f_code
        _seen.add(code)
        if code.co_filename.startswith({src!r}):
            path = os.path.join({out!r}, "%d.txt" % os.getpid())
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, ("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno)).encode())
            finally:
                os.close(fd)
sys.setprofile(_record)
threading.setprofile(_record)
'''


def entry_points(tmp: Path) -> list[tuple[str, list[str], str]]:
    """``(name, argv, stdin)`` of every entry point, run from the repo root."""
    py, cli = sys.executable, [sys.executable, "-m", "repro"]
    serve = (("thread", "ram"), ("thread", "mmap"), ("process", "ram"), ("process", "mmap"),
             ("thread", "ram", "--adaptive"), ("process", "mmap", "--adaptive"))
    runs = [[py, "scripts/serve_smoke.py", "--backend", backend, "--storage", storage, *extra]
            for backend, storage, *extra in serve]
    runs += [[py, "scripts/zoo_smoke.py"], cli + ["zoo", "--quick"]]
    runs += [[py, str(path.relative_to(ROOT))] for path in sorted(ROOT.glob("examples/*.py"))]
    net = ["--network", str(tmp / "ego.json")]
    for preset in ("bibliographic", "security", "ego"):
        runs.append(cli + ["generate", "--preset", preset, "--out", str(tmp / f"{preset}.json")])
    runs += [cli + ["query", *net, QUERY, "--stats", "--distribution"],
             cli + ["query", *net, QUERY, "--format", "json"],
             # The degradation ladder: PM refused by the memory budget.
             cli + ["query", *net, QUERY, "--timeout", "30", "--max-memory-mb", "1e-3"],
             cli + ["workload", *net, "--count", "5"],
             cli + ["explain", *net, QUERY], cli + ["suggest", *net, QUERY],
             cli + ["schema", *net], cli + ["stats", *net], cli + ["shell", *net]]
    runs += [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(path.relative_to(ROOT))]
             for path in sorted(ROOT.glob("benchmarks/bench_*.py"))]
    runs += [[py, "benchmarks/e2e/run.py", "--smoke", "--workload", workload, "--trace", "1"]
             for workload in ("ego_mix", "venue_wide", "hot_session", "adhoc_onthefly")]
    shell_input = f".strategy spm\n{QUERY}\n.explain {QUERY}\n.quit\n"
    return [(" ".join(arg for arg in argv[1:] if arg != QUERY and str(tmp) not in arg),
             argv, shell_input if "shell" in argv else "") for argv in runs]


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (qualified name, last line)`` of every function."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = (prefix + child.name, child.end_lineno)
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), "")
    return found


def run(command: list[str], env: dict, stdin: str) -> int:
    """Exit code of ``command`` run from the repo root, output discarded."""
    return subprocess.run(command, cwd=ROOT, env=env, input=stdin, text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv: list[str]) -> int:
    table = functions()
    reached: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for number, (name, command, stdin) in enumerate(entry_points(tmp)):
            if argv and not any(pattern in name for pattern in argv):
                continue
            site, out = tmp / f"site{number}", tmp / f"out{number}"
            site.mkdir()
            out.mkdir()
            (site / "sitecustomize.py").write_text(
                RECORDER.format(src=str(SRC) + os.sep, out=str(out)), encoding="utf-8")
            env = {**os.environ, "BENCH_SMOKE": "1", "PYTHONPATH": str(ROOT / "src")}
            profiled = {**env, "PYTHONPATH": os.pathsep.join([str(site), env["PYTHONPATH"]])}
            started = time.perf_counter()
            code = run(command, profiled, stdin)
            verdict = ""
            if code:
                # The profiler slows every call; a timing assertion can trip
                # under it alone, so a failure is re-run once without it.
                verdict = ("  fails" if run(command, env, stdin)
                           else "  fails only under the profiler")
            mine = set()
            for record in out.glob("*.txt"):
                for line in record.read_text(encoding="utf-8").splitlines():
                    path, first = line.rsplit("\t", 1)
                    mine.add((path, int(first)))
            mine &= table.keys()
            reached |= mine
            print(f"{time.perf_counter() - started:7.1f}s  exit {code:<3} "
                  f"{len(mine):4d} functions  {name}{verdict}", flush=True)
    unreached = sorted(table.keys() - reached)
    module = None
    for path, first in unreached:
        if path != module:
            module = path
            print(f"\n{Path(path).relative_to(ROOT)}")
        name, last = table[(path, first)]
        print(f"  {first:5d}-{last:<5d} {name}")
    lines = sum(table[key][1] - key[1] + 1 for key in unreached)
    print(f"\nreached {len(table) - len(unreached)} of {len(table)} functions; "
          f"{len(unreached)} unreached span {lines} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
