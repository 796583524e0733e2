"""Ablation — cross-query row caching on top of each strategy.

Workloads repeat hub vertices (every coauthor query in a community re-reads
the same prolific authors' vectors), so an LRU row cache composes with the
paper's indexes — where recomputing a row costs more than keeping it.  Two
query sets over the same anchors tell the two cases apart:

* **Q1** judges by the length-2 ``author.paper.venue``.  Since the batched
  materialization layer a block of such rows is one or two sparse products
  (Baseline, SPM) or one index gather (PM), so there is little to save: the
  cache costs ≈1.05–1.15× on Baseline and SPM and nothing on PM.
* **L4** judges by the length-4 ``author.paper.venue.paper.author``, whose
  rows are products of products: the cache cuts Baseline and SPM ≈1.55×
  and PM ≈1.3×.

Since NetOut is scored by sums (DESIGN.md, "Eq. 1 by sums") what the cache
keeps for scoring is ``‖φ(v)‖²`` per vertex (the ``vis hit`` column), not
the row; ``row hit`` counts the set-retrieval rows only.
``test_length4_rows_vs_sums`` times the two scoring routes against each
other on the warm cache.
"""

import pytest

from repro.datagen.workloads import generate_query_set
from repro.engine.caching import CachingStrategy
from repro.engine.executor import QueryExecutor
from repro.engine.strategies import MaterializationStrategy, make_strategy
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

#: The same feature path judged over a venue's whole author set (hundreds of
#: candidates where L4's coauthor sets have a median of nine).
TEMPLATE_L4_WIDE = QueryTemplate(
    name="L4wide",
    text=(
        'FIND OUTLIERS FROM venue{{"{anchor}"}}.paper.author\n'
        "JUDGED BY author.paper.venue.paper.author\n"
        "TOP 10;"
    ),
    anchor_type="venue",
)


class RowsOnly(MaterializationStrategy):
    """``inner`` behind a strategy that cannot propagate: the rows route."""

    name = "rows-only"

    def __init__(self, inner) -> None:
        super().__init__(inner.network)
        self.inner = inner

    def _materialize_block(self, path, vertex_indices, stats):
        return self.inner.neighbor_matrix(path, vertex_indices, stats)


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
        results, __ = executor.execute_many(list(workload))
        return len(results)

    executed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert executed > 0


@pytest.mark.parametrize("route", ["rows", "sums"])
@pytest.mark.parametrize("template", [TEMPLATE_L4, TEMPLATE_L4_WIDE], ids=lambda t: t.name)
def test_length4_rows_vs_sums(benchmark, bench_network, query_sets, template, route):
    """Equation 1 from cached rows vs from propagation + cached ‖φ‖², both warm.

    Tiny candidate sets (L4) are the rows route's best case — a handful of
    cached rows against eight numpy hops; wide ones (L4wide) the sums
    route's: no block of wide rows to assemble, square and sum.
    """
    workload = generate_query_set(
        bench_network, template, len(query_sets["Q1"]) // 4, seed=7
    )
    strategy = CachingStrategy(make_strategy(bench_network, "baseline"), max_rows=50_000)
    if route == "rows":
        strategy = RowsOnly(strategy)
    executor = QueryExecutor(strategy, collect_stats=False)
    benchmark.group = f"eq1-route-{template.name}"

    def run():
        results, __ = executor.execute_many(list(workload))
        return len(results)

    assert run() > 0  # fill the cache: the timed pass is the steady state
    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0


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
            executor.execute_many(list(workload))
            elapsed = time.perf_counter() - start
            row_hit = vis_hit = 0.0
            if cache is not None:
                counts = cache.snapshot()
                lookups = counts["visibility_hits"] + counts["visibility_misses"]
                row_hit = counts["hit_rate"]
                vis_hit = counts["visibility_hits"] / lookups if lookups else 0.0
            rows.append((name, base, cached, elapsed * 1e3, row_hit, vis_hit))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        f"LRU row cache over {count} queries per set "
        "(Q1: length-2 feature path, L4: length-4)",
        "",
        f"{'set':>4} {'strategy':>9} {'cached':>7} {'total ms':>9} "
        f"{'row hit':>8} {'vis hit':>8}",
    ]
    timings = {}
    for name, base, cached, elapsed_ms, row_hit, vis_hit in rows:
        timings[(name, base, cached)] = elapsed_ms
        lines.append(
            f"{name:>4} {base:>9} {str(cached):>7} {elapsed_ms:>9.1f} "
            f"{row_hit:>8.2f} {vis_hit:>8.2f}"
        )
    lines.append("")
    lines.append(
        "shape: caching pays where a row is a product of products (L4, every "
        "strategy); on length-2 paths it costs a little on baseline/SPM and "
        "nothing on PM"
    )
    report("ablation_row_cache", "\n".join(lines))

    assert timings[("L4", "baseline", True)] < timings[("L4", "baseline", False)]
