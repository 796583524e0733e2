"""Tuning query execution: Baseline vs PM vs SPM (paper Section 6, Figures 3-5).

Run with::

    python examples/efficiency_tuning.py

Shows how to pick a materialization strategy for a workload:

* the unindexed baseline needs no memory but traverses the network per query;
* PM pre-materializes every length-2 meta-path (fastest, biggest index);
* SPM analyzes a query log and indexes only frequently touched vertices,
  trading a little speed for a much smaller index — with the threshold
  sweep of the paper's Figure 5 to pick the operating point.
"""

import time

from repro import OutlierDetector
from repro.datagen.synthetic import GeneratorConfig, hub_ego_corpus
from repro.datagen.workloads import generate_query_set
from repro.engine.executor import QueryExecutor
from repro.engine.optimizer import WorkloadAnalyzer
from repro.engine.strategies import SPMStrategy
from repro.query.templates import TEMPLATE_Q1


def run_workload(detector, workload):
    start = time.perf_counter()
    results, stats = detector.detect_many(workload)
    elapsed = time.perf_counter() - start
    return len(results), elapsed, stats


def main():
    corpus = hub_ego_corpus(
        config=GeneratorConfig(
            num_communities=4,
            authors_per_community=200,
            venues_per_community=8,
            papers_per_community=900,
        )
    )
    network = corpus.network
    print(f"corpus: {network}")

    # A query log: the paper's Q1 template over random authors.
    workload = generate_query_set(network, TEMPLATE_Q1, 80, seed=5)
    print(f"workload: {len(workload)} queries from template Q1\n")

    print(f"{'strategy':>9} {'queries':>8} {'total s':>9} {'index MB':>9}")
    for name in ("baseline", "pm", "spm"):
        kwargs = {}
        if name == "spm":
            kwargs = {"spm_workload": workload, "spm_threshold": 0.01}
        detector = OutlierDetector(network, strategy=name, **kwargs)
        executed, elapsed, __ = run_workload(detector, workload)
        print(
            f"{name:>9} {executed:>8d} {elapsed:>9.3f} "
            f"{detector.index_size_bytes() / 1e6:>9.2f}"
        )

    # The SPM threshold sweep (paper Figure 5): pick your trade-off.
    print("\nSPM threshold sweep:")
    analyzer = WorkloadAnalyzer(network)
    analyzer.analyze_many(workload)
    print(f"{'threshold':>10} {'#indexed':>9} {'index MB':>9} {'total s':>9}")
    for threshold in (0.001, 0.01, 0.05, 0.1):
        index = analyzer.build_index(threshold)
        executor = QueryExecutor(SPMStrategy(network, index=index))
        start = time.perf_counter()
        executor.execute_many(list(workload))
        elapsed = time.perf_counter() - start
        print(
            f"{threshold:>10g} {len(analyzer.frequent_vertices(threshold)):>9d} "
            f"{index.size_bytes() / 1e6:>9.2f} {elapsed:>9.3f}"
        )

    # Inspect what the planner would do for one query under SPM.
    detector = OutlierDetector(
        network, strategy="spm", spm_workload=workload, spm_threshold=0.01
    )
    print("\nexecution plan for one workload query under SPM:")
    print(detector.explain(workload[0]).describe())


if __name__ == "__main__":
    main()
