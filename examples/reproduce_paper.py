"""One-shot reproduction driver: every paper table/figure, in one run.

Run with::

    python examples/reproduce_paper.py

Walks the paper's evaluation end to end using only the public API — the
exact Table 2 values, the Table 3 measure comparison, the Table 5 case
study, and the Figure 3-5 efficiency study — printing paper-vs-measured as
it goes.  (The benchmark suite under ``benchmarks/`` does the same with
assertions and persisted artifacts; this script is the readable tour.)
"""

import time

import numpy as np

from repro import OutlierDetector
from repro.core import get_measure
from repro.datagen import generate_query_set, hub_ego_corpus
from repro.datagen.fixtures import TABLE1_CANDIDATES, table1_network
from repro.engine import BaselineStrategy, WorkloadAnalyzer
from repro.engine.strategies import SPMStrategy
from repro.engine.executor import QueryExecutor
from repro.metapath import MetaPath
from repro.query import QUERY_TEMPLATES


def banner(title):
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}")


def reproduce_table2():
    banner("Table 2 — toy Ω values (EXACT reproduction)")
    network, candidates, reference = table1_network()
    strategy = BaselineStrategy(network)
    path = MetaPath.parse("author.paper.venue")
    phi_c = strategy.neighbor_matrix(
        path, [network.find_vertex("author", n).index for n in candidates]
    )
    phi_r = strategy.neighbor_matrix(
        path, [network.find_vertex("author", n).index for n in reference]
    )
    paper = {
        "netout": [100, 6.24, 31.11, 50, 3.33],
        "pathsim": [100, 9.97, 32.79, 1.94, 5.44],
        "cossim": [100, 12.43, 32.83, 7.04, 7.04],
    }
    print(f"{'':8s}" + "".join(f"{m:>22s}" for m in paper))
    for row, name in enumerate(TABLE1_CANDIDATES):
        cells = []
        for measure_name in paper:
            value = get_measure(measure_name).score(phi_c, phi_r)[row]
            cells.append(f"{value:8.2f} (paper {paper[measure_name][row]:g})")
        print(f"{name:8s}" + "".join(f"{c:>22s}" for c in cells))


def reproduce_tables_3_and_5(corpus):
    network = corpus.network
    banner("Table 3 — top-5 outliers per measure (shape)")
    query = (
        f'FIND OUTLIERS FROM author{{"{corpus.hub}"}}.paper.author '
        "JUDGED BY author.paper.venue TOP 5;"
    )
    for measure in ("netout", "pathsim", "cossim"):
        names = OutlierDetector(network, strategy="pm", measure=measure).detect(query).names()
        print(f"  {measure:>8}: {names}")
    print("  paper: NetOut -> established cross-field authors; "
          "PathSim/CosSim -> sub-2-paper authors")

    banner("Table 5 — case study (shape)")
    detector = OutlierDetector(network, strategy="pm")
    by_venue = detector.detect(query).names()
    by_coauthor = detector.detect(
        f'FIND OUTLIERS FROM author{{"{corpus.hub}"}}.paper.author '
        "JUDGED BY author.paper.author TOP 5;"
    ).names()
    print(f"  judged by venues    : {by_venue}")
    print(f"  judged by coauthors : {by_coauthor}")
    print("  paper: different judgments, substantially different outliers")


def reproduce_figures(corpus):
    network = corpus.network
    banner("Figure 3 — execution time per strategy (shape)")
    workloads = {
        t.name: generate_query_set(network, t, 60, seed=7) for t in QUERY_TEMPLATES
    }
    print(f"  {'set':>4} {'Baseline ms':>12} {'PM ms':>8} {'SPM ms':>8}")
    for name, workload in workloads.items():
        timings = {}
        for strategy_name in ("baseline", "pm", "spm"):
            kwargs = {}
            if strategy_name == "spm":
                kwargs = {"spm_workload": workload, "spm_threshold": 0.01}
            detector = OutlierDetector(network, strategy=strategy_name, **kwargs)
            start = time.perf_counter()
            detector.detect_many(workload)
            timings[strategy_name] = (time.perf_counter() - start) * 1e3
        print(
            f"  {name:>4} {timings['baseline']:>12.1f} {timings['pm']:>8.1f} "
            f"{timings['spm']:>8.1f}"
        )
    print("  paper: PM/SPM 5-100x faster than Baseline")

    banner("Figure 4 — SPM phase breakdown (shape)")
    # A tighter threshold than the paper's 0.01: with only 60 queries at
    # this scale nearly every touched vertex clears 0.01, which would leave
    # no traversal misses to observe.
    workload = workloads["Q1"]
    detector = OutlierDetector(
        network, strategy="spm", spm_workload=workload, spm_threshold=0.05,
    )
    __, stats = detector.detect_many(workload)
    for phase, seconds in stats.breakdown().items():
        print(f"  {phase:<26s} {seconds * 1e3:8.1f} ms")
    print("  paper: materializing non-indexed vectors dominates")

    banner("Figure 5 — SPM threshold sweep (shape)")
    analyzer = WorkloadAnalyzer(network)
    for queries in workloads.values():
        analyzer.analyze_many(queries)
    all_queries = [q for qs in workloads.values() for q in qs]
    print(f"  {'threshold':>10} {'index MB':>9} {'avg ms':>8}")
    for threshold in (0.001, 0.01, 0.05, 0.1):
        index = analyzer.build_index(threshold)
        executor = QueryExecutor(SPMStrategy(network, index=index))
        start = time.perf_counter()
        results, __ = executor.execute_many(list(all_queries))
        average = (time.perf_counter() - start) * 1e3 / max(len(results), 1)
        print(
            f"  {threshold:>10g} {index.size_bytes() / 1e6:>9.2f} {average:>8.3f}"
        )
    print("  paper: size falls and time rises with the threshold; "
          "sweet spot 0.01-0.05")


def main():
    np.set_printoptions(precision=2)
    print("Reproducing: Kuck et al., 'Query-Based Outlier Detection in "
          "Heterogeneous Information Networks' (EDBT 2015)")
    reproduce_table2()
    corpus = hub_ego_corpus()
    reproduce_tables_3_and_5(corpus)
    reproduce_figures(corpus)
    print("\ndone — see benchmarks/ for the asserted versions and "
          "EXPERIMENTS.md for the recorded numbers.")


if __name__ == "__main__":
    main()
