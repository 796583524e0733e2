"""Paper Figure 3 — total execution time of query sets Q1-Q3 under
Baseline / PM / SPM.

The paper processes 10,000 template-instantiated queries per set and finds
pre-materialization 5-100x faster than the baseline, with SPM generally
between PM and the baseline.  We replay the same three templates (Table 4)
over a smaller query set and report the same series.
"""

import pytest

from repro.engine.detector import OutlierDetector
from repro.engine.optimizer import WorkloadAnalyzer
from repro.engine.strategies import make_strategy

SPM_THRESHOLD = 0.01  # the paper's relative frequency threshold

STRATEGIES = ("baseline", "pm", "spm")


def _build_detector(network, strategy_name, workload):
    if strategy_name == "spm":
        return OutlierDetector(
            network,
            strategy="spm",
            spm_workload=workload,
            spm_threshold=SPM_THRESHOLD,
        )
    return OutlierDetector(network, strategy=strategy_name)


@pytest.mark.parametrize("template_name", ["Q1", "Q2", "Q3"])
@pytest.mark.parametrize("strategy_name", STRATEGIES)
def test_figure3_query_set(
    benchmark, bench_network, query_sets, template_name, strategy_name
):
    """One bar of Figure 3: (query set, strategy) -> total execution time."""
    workload = query_sets[template_name]
    detector = _build_detector(bench_network, strategy_name, workload)
    benchmark.group = f"figure3-{template_name}"

    def run():
        results, stats = detector.detect_many(workload)
        return len(results)

    executed = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert executed > 0


def test_figure3_report(benchmark, bench_network, query_sets, report):
    """The full Figure 3 data table, plus the paper's ordering assertions.

    The orderings are asserted on what separates the strategies — the
    seconds spent materializing neighbor vectors and the indexed/traversed
    vector counts — not on total wall time: at ~1 ms a query that is mostly
    parsing, set bookkeeping and scoring, which no index changes.
    """

    def run_all():
        table, collected = {}, {}
        for template_name, workload in query_sets.items():
            for strategy_name in STRATEGIES:
                detector = _build_detector(bench_network, strategy_name, workload)
                __, stats = detector.detect_many(workload)
                table[(template_name, strategy_name)] = (
                    stats.wall_seconds * 1e3,
                    stats.queries,
                )
                collected[(template_name, strategy_name)] = stats
        return table, collected

    table, collected = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        f"total execution time (ms) for {len(next(iter(query_sets.values())))} "
        f"queries per set (paper: 10,000 queries, log-scale ms)",
        "",
        f"{'set':>4} {'Baseline':>12} {'PM':>12} {'SPM':>12} "
        f"{'PM speedup':>12} {'SPM speedup':>12}",
    ]
    for template_name in query_sets:
        baseline_ms, __ = table[(template_name, "baseline")]
        pm_ms, __ = table[(template_name, "pm")]
        spm_ms, __ = table[(template_name, "spm")]
        lines.append(
            f"{template_name:>4} {baseline_ms:>12.1f} {pm_ms:>12.1f} "
            f"{spm_ms:>12.1f} {baseline_ms / pm_ms:>11.1f}x "
            f"{baseline_ms / spm_ms:>11.1f}x"
        )
    lines.append("")
    lines.append(
        "paper's shape: PM and SPM are 5-100x faster than Baseline; SPM is "
        "generally at or below PM"
    )
    lines.append("")
    lines.append(
        f"{'set':>4} {'strategy':>9} {'materialize ms':>15} {'#traversed':>11} "
        f"{'#indexed':>9} {'#propagated':>12}"
    )
    for (template_name, strategy_name), stats in collected.items():
        lines.append(
            f"{template_name:>4} {strategy_name:>9} "
            f"{stats.materialization_seconds * 1e3:>15.1f} "
            f"{stats.traversed_vectors:>11d} {stats.indexed_vectors:>9d} "
            f"{stats.propagated_vectors:>12d}"
        )
    report("figure3_execution_time", "\n".join(lines))

    # The paper's ordering claims.
    for template_name in query_sets:
        baseline, pm, spm = (
            collected[(template_name, name)] for name in STRATEGIES
        )
        # Every strategy fetches the same vectors; the index decides how.
        fetched = baseline.traversed_vectors
        assert baseline.indexed_vectors == 0 and pm.traversed_vectors == 0
        assert pm.indexed_vectors == fetched
        assert spm.indexed_vectors + spm.traversed_vectors == fetched
        assert 0 < spm.traversed_vectors < fetched, f"{template_name}: SPM mix"
        # Scoring by propagation hops once over each stored length-2 matrix
        # where the adjacency takes two; SPM's partial rows are no operand.
        assert (
            pm.propagated_vectors
            < baseline.propagated_vectors
            == spm.propagated_vectors
        ), f"{template_name}: PM propagation not over its stored matrices"
        assert pm.materialization_seconds * 1.5 < baseline.materialization_seconds, (
            f"{template_name}: PM materialization not 1.5x faster than baseline "
            "— indexing is not paying off"
        )
        assert spm.not_indexed_seconds < baseline.not_indexed_seconds, (
            f"{template_name}: SPM traverses fewer vectors yet spends longer on it"
        )
