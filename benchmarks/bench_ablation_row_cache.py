"""Ablation — cross-query row caching on top of each strategy.

Workloads repeat hub vertices (every coauthor query in a community re-reads
the same prolific authors' vectors), so an LRU row cache composes with the
paper's indexes — where recomputing a row costs more than keeping it.  Two
query sets over the same anchors tell the two cases apart:

* **Q1** judges by the length-2 ``author.paper.venue``.  Since the batched
  materialization layer a block of such rows is one or two sparse products
  (Baseline, SPM) or one index gather (PM), so there is little to save: the
  cache costs ≈1.25× on Baseline and SPM, and on PM it is bypassed
  (``answers_by_lookup``) and measures nothing.
* **L4** judges by the length-4 ``author.paper.venue.paper.author``, whose
  rows are products of products: the cache (hit rate ≈ 0.56–0.60) cuts
  Baseline ≈1.8×, SPM ≈1.35× and PM ≈1.35×.
"""

import pytest

from repro.datagen.workloads import generate_query_set
from repro.engine.caching import CachingStrategy
from repro.engine.executor import QueryExecutor
from repro.engine.strategies import make_strategy
from repro.engine.optimizer import WorkloadAnalyzer
from repro.query.templates import QueryTemplate

TEMPLATE_L4 = QueryTemplate(
    name="L4",
    text=(
        'FIND OUTLIERS FROM author{{"{anchor}"}}.paper.author\n'
        "JUDGED BY author.paper.venue.paper.author\n"
        "TOP 10;"
    ),
    anchor_type="author",
)


def _spm_strategy(network, workload):
    analyzer = WorkloadAnalyzer(network)
    analyzer.analyze_many(workload)
    return make_strategy(network, "spm", index=analyzer.build_index(0.01))


@pytest.mark.parametrize("base", ["baseline", "spm", "pm"])
@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
def test_cache_timing(benchmark, bench_network, query_sets, base, cached):
    workload = query_sets["Q1"]
    if base == "spm":
        strategy = _spm_strategy(bench_network, workload)
    else:
        strategy = make_strategy(bench_network, base)
    if cached:
        strategy = CachingStrategy(strategy, max_rows=50_000)
    executor = QueryExecutor(strategy, collect_stats=False)
    benchmark.group = f"row-cache-{base}"

    def run():
        results, __ = executor.execute_many(list(workload), skip_failures=True)
        return len(results)

    executed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert executed > 0


def test_cache_report(benchmark, bench_network, query_sets, report):
    import itertools
    import time

    count = len(query_sets["Q1"])
    workloads = {
        "Q1": query_sets["Q1"],
        "L4": generate_query_set(bench_network, TEMPLATE_L4, count, seed=7),
    }

    def sweep():
        rows = []
        for (name, workload), base, cached in itertools.product(
            workloads.items(), ("baseline", "spm", "pm"), (False, True)
        ):
            if base == "spm":
                strategy = _spm_strategy(bench_network, workload)
            else:
                strategy = make_strategy(bench_network, base)
            cache = None
            if cached:
                cache = CachingStrategy(strategy, max_rows=50_000)
                strategy = cache
            executor = QueryExecutor(strategy, collect_stats=False)
            start = time.perf_counter()
            executor.execute_many(list(workload), skip_failures=True)
            elapsed = time.perf_counter() - start
            hit_rate = cache.hit_rate if cache is not None else 0.0
            rows.append((name, base, cached, elapsed * 1e3, hit_rate))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        f"LRU row cache over {count} queries per set "
        "(Q1: length-2 feature path, L4: length-4)",
        "",
        f"{'set':>4} {'strategy':>9} {'cached':>7} {'total ms':>9} {'hit rate':>9}",
    ]
    timings = {}
    for name, base, cached, elapsed_ms, hit_rate in rows:
        timings[(name, base, cached)] = elapsed_ms
        lines.append(
            f"{name:>4} {base:>9} {str(cached):>7} {elapsed_ms:>9.1f} {hit_rate:>9.2f}"
        )
    lines.append("")
    lines.append(
        "shape: caching pays where a row is a product of products (L4, every "
        "strategy); on length-2 paths it costs a little on baseline/SPM and "
        "is bypassed on PM"
    )
    report("ablation_row_cache", "\n".join(lines))

    assert timings[("L4", "baseline", True)] < timings[("L4", "baseline", False)]
