"""Ablation — strategy scaling with network size.

The paper evaluates on one fixed (2.2M-paper) corpus; this bench sweeps the
synthetic corpus size to show how the Baseline/PM gap grows with scale —
the reason indexing matters on their corpus even though all strategies are
fast on toy networks.  Also reports PM index build time and size per scale
(the offline cost the paper's online numbers exclude).
"""

import time

import pytest

from repro.datagen.synthetic import BibliographicNetworkGenerator, GeneratorConfig
from repro.datagen.workloads import generate_query_set
from repro.engine.detector import OutlierDetector
from repro.engine.index import build_pm_index
from repro.query.templates import TEMPLATE_Q1

SCALES = {
    "small": GeneratorConfig(
        num_communities=3, authors_per_community=100, venues_per_community=6,
        terms_per_community=80, papers_per_community=300,
    ),
    "medium": GeneratorConfig(
        num_communities=4, authors_per_community=200, venues_per_community=8,
        terms_per_community=150, papers_per_community=800,
    ),
    "large": GeneratorConfig(
        num_communities=5, authors_per_community=300, venues_per_community=10,
        terms_per_community=250, papers_per_community=1800,
    ),
}

QUERIES_PER_SCALE = 40


def _build(scale_name):
    network = BibliographicNetworkGenerator(SCALES[scale_name], seed=1).build_network()
    workload = generate_query_set(network, TEMPLATE_Q1, QUERIES_PER_SCALE, seed=2)
    return network, workload


@pytest.fixture(scope="module")
def corpora():
    return {name: _build(name) for name in SCALES}


@pytest.mark.parametrize("scale", list(SCALES), ids=list(SCALES))
def test_pm_index_build(benchmark, corpora, scale):
    network, __ = corpora[scale]
    benchmark.group = "scaling-index-build"
    index = benchmark.pedantic(build_pm_index, args=(network,), rounds=1, iterations=1)
    assert index.size_bytes() > 0


@pytest.mark.parametrize("scale", list(SCALES), ids=list(SCALES))
@pytest.mark.parametrize("strategy", ["baseline", "pm"])
def test_strategy_scaling(benchmark, corpora, scale, strategy):
    network, workload = corpora[scale]
    detector = OutlierDetector(network, strategy=strategy)
    benchmark.group = f"scaling-{scale}"

    def run():
        results, __ = detector.detect_many(workload)
        return len(results)

    executed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert executed > 0


def test_scaling_report(benchmark, corpora, report):
    def sweep():
        rows = []
        for scale, (network, workload) in corpora.items():
            start = time.perf_counter()
            index = build_pm_index(network)
            build_seconds = time.perf_counter() - start
            timings = {}
            for strategy in ("baseline", "pm"):
                detector = OutlierDetector(network, strategy=strategy)
                __, stats = detector.detect_many(workload)
                timings[strategy] = stats.wall_seconds * 1e3
            rows.append(
                (
                    scale,
                    network.num_vertices(),
                    network.num_edges(),
                    timings["baseline"],
                    timings["pm"],
                    build_seconds * 1e3,
                    index.size_bytes(),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        f"strategy scaling, {QUERIES_PER_SCALE} Q1 queries per corpus",
        "",
        f"{'scale':>7} {'vertices':>9} {'edges':>8} {'Baseline ms':>12} "
        f"{'PM ms':>8} {'speedup':>8} {'build ms':>9} {'index MB':>9}",
    ]
    speedups = []
    for scale, vertices, edges, baseline_ms, pm_ms, build_ms, size in rows:
        speedups.append(baseline_ms / pm_ms)
        lines.append(
            f"{scale:>7} {vertices:>9d} {edges:>8d} {baseline_ms:>12.1f} "
            f"{pm_ms:>8.1f} {baseline_ms / pm_ms:>7.1f}x {build_ms:>9.1f} "
            f"{size / 1e6:>9.2f}"
        )
    lines.append("")
    lines.append(
        "shape: the Baseline/PM gap grows with corpus size — at the paper's "
        "2.2M-paper scale this is the 5-100x of Figure 3"
    )
    report("ablation_scaling", "\n".join(lines))

    assert all(s > 1.0 for s in speedups)
    assert speedups[-1] > speedups[0], "speedup should grow with scale"
