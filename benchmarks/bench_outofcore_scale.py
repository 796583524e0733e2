"""Benchmark — million-vertex scale on the mmap/out-of-core tier.

The paper's target corpora (AMiner: 2.4M papers) never fit the in-RAM
assumption the rest of this harness makes, so this module exercises the
large-graph tier end to end:

1. **Scale leg** (runs first, so its RSS attribution is clean): stream a
   ≥1M-vertex synthetic network straight onto ``storage="mmap"``, build
   the full PM index **out-of-core** in bounded row blocks
   (:func:`~repro.engine.index.build_pm_index` with ``block_rows``), reload it
   zero-copy via :func:`~repro.engine.index_io.load_index`, and run
   warm queries — sampling resident set size throughout.  The headline
   numbers: peak RSS during the whole mmap leg versus the in-RAM footprint
   the same network + index would occupy (both reported, bound asserted).
2. **RAM reference leg** (full mode): the same network and in-core PM
   build held in RAM, for the warm-latency comparison (mmap must stay
   within 2x on warm paths) and full-scale score parity.
3. **Parity grid**: ``ram``/``mmap`` storage x in-core/blocked build must
   produce *byte-identical* scores — plus the same check for the
   byte-budgeted SPM build, one block against small blocks in a store.

Artifacts land in ``benchmarks/out/``:

* ``outofcore_scale.txt`` — human-readable summary;
* ``BENCH_scale.json`` — machine-readable baseline (vertex count, build
  times, ``rss_peak_mb`` per leg, warm latencies, parity verdicts).

Quick mode: ``BENCH_SMOKE=1`` (CI's scale-smoke job) shrinks the corpus to
a few thousand vertices, skips the RAM reference leg's latency bound (too
noisy at that scale), and replaces the RSS bound with its structural
equivalent — every index and adjacency buffer must be file-backed
(``np.memmap``), i.e. the bytes live on disk, not in the resident set.
"""

import os
import tempfile
import threading
import time

import numpy as np

from repro.datagen.synthetic import (
    StreamingCorpusConfig,
    streaming_bibliographic_network,
)
from repro.engine.detector import OutlierDetector
from repro.engine.index import build_pm_index, build_spm_index
from repro.engine.index_io import load_index
from repro.hin.network import VertexId
from repro.hin.storage import MmapArrayStore, is_store_backed
from repro.utils.sparsetools import csr_storage_bytes

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

SCALE_CONFIG = (
    StreamingCorpusConfig(
        num_papers=4_000,
        num_authors=1_500,
        num_venues=60,
        num_terms=900,
        chunk_papers=1_500,
    )
    if SMOKE
    else StreamingCorpusConfig()  # ~1.08M vertices (defaults)
)

GRID_CONFIG = StreamingCorpusConfig(
    num_papers=2_500,
    num_authors=1_000,
    num_venues=40,
    num_terms=600,
    chunk_papers=900,
)

SEED = 2015

#: Warm-path query anchors: ``a0`` is the most prolific author by
#: construction (Zipf rank 1), the rest step down the popularity curve.
ANCHORS = ("a0", "a1", "a2", "a5", "a10", "a20")

BLOCK_ROWS = 512 if SMOKE else 8192


def _query(anchor: str, top: int = 10) -> str:
    return (
        f'FIND OUTLIERS FROM author{{"{anchor}"}}.paper.author '
        f"JUDGED BY author.paper.venue TOP {top};"
    )


class RssSampler:
    """Samples ``VmRSS`` on a background thread; peak attributable per phase.

    ``VmHWM`` (the kernel high-water mark, what ``json_report`` records) is
    monotone over the process lifetime, so a leg that must *prove* its
    bound needs its own sampled peak — started before the leg, read after.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self._interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.peak_mb = 0.0

    @staticmethod
    def current_mb() -> float:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
        return 0.0  # pragma: no cover - VmRSS always present on Linux

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, self.current_mb())
            self._stop.wait(self._interval)

    def __enter__(self) -> "RssSampler":
        self.peak_mb = self.current_mb()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self.peak_mb = max(self.peak_mb, self.current_mb())


def _network_footprint_bytes(network) -> int:
    return sum(
        csr_storage_bytes(network.adjacency(et.source, et.target))
        for et in network.schema.edge_types
    )


def _warm_latencies(detector, queries):
    """Median per-query latency on the second (warm) pass, in ms."""
    for query in queries:  # warm: touch every row/page once
        detector.detect(query)
    samples = []
    for query in queries:
        start = time.perf_counter()
        detector.detect(query)
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples)), samples


def _scores_of(detector, queries):
    results = []
    for query in queries:
        result = detector.detect(query)
        results.append(sorted(result.scores.items()))
    return results


def test_outofcore_scale(report, json_report):
    queries = [_query(anchor) for anchor in ANCHORS]
    payload: dict = {
        "smoke": SMOKE,
        "config": {
            "num_papers": SCALE_CONFIG.num_papers,
            "num_authors": SCALE_CONFIG.num_authors,
            "num_venues": SCALE_CONFIG.num_venues,
            "num_terms": SCALE_CONFIG.num_terms,
            "block_rows": BLOCK_ROWS,
        },
        "num_vertices": SCALE_CONFIG.num_vertices,
    }
    lines = [
        "million-vertex scale: mmap storage + blocked out-of-core PM build",
        f"sizes: {'quick (BENCH_SMOKE)' if SMOKE else 'full'}",
        "",
        f"vertices: {SCALE_CONFIG.num_vertices:,} "
        f"(papers={SCALE_CONFIG.num_papers:,} authors={SCALE_CONFIG.num_authors:,} "
        f"venues={SCALE_CONFIG.num_venues:,} terms={SCALE_CONFIG.num_terms:,})",
    ]

    # ---- Leg 1: mmap tier, out-of-core build (first: clean RSS) ------
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as workdir:
        store_dir = os.path.join(workdir, "pm-index")
        with RssSampler() as mmap_rss:
            baseline_mb = RssSampler.current_mb()
            t0 = time.perf_counter()
            network = streaming_bibliographic_network(
                SCALE_CONFIG, seed=SEED, storage="mmap", storage_dir=workdir
            )
            gen_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            build_pm_index(
                network, block_rows=BLOCK_ROWS, store=MmapArrayStore(store_dir)
            )
            build_seconds = time.perf_counter() - t0
            index = load_index(store_dir)
            detector = OutlierDetector(network, strategy="pm", index=index)
            warm_ms, _ = _warm_latencies(detector, queries)
        mmap_scores = _scores_of(detector, queries)

        # The bytes the RAM tier would hold resident: every adjacency
        # matrix plus every materialized index matrix (here they live on
        # disk instead — sum the store's files for the index part).
        index_disk_bytes = sum(
            os.path.getsize(os.path.join(store_dir, f))
            for f in os.listdir(store_dir)
        )
        in_ram_estimate_mb = (
            _network_footprint_bytes(network) + index_disk_bytes
        ) / 1e6
        edges = int(network.num_edges())

        # Structural bound (asserted in every mode): the matrices the
        # detector serves from are file-backed views, not resident copies.
        for edge_type in network.schema.edge_types:
            assert is_store_backed(
                network.adjacency(edge_type.source, edge_type.target)
            )
        for path in index.paths:
            assert is_store_backed(index.full_matrix(path))

        payload["scale_leg"] = {
            "edges": edges,
            "generate_seconds": round(gen_seconds, 2),
            "build_seconds": round(build_seconds, 2),
            "baseline_rss_mb": round(baseline_mb, 1),
            "peak_rss_mb": round(mmap_rss.peak_mb, 1),
            "in_ram_footprint_mb": round(in_ram_estimate_mb, 1),
            "index_disk_mb": round(index_disk_bytes / 1e6, 1),
            "warm_query_median_ms": round(warm_ms, 3),
        }
        lines += [
            f"edges: {edges:,}",
            f"generate: {gen_seconds:.1f}s   blocked PM build: {build_seconds:.1f}s "
            f"(block_rows={BLOCK_ROWS})",
            f"index on disk: {index_disk_bytes / 1e6:,.0f} MB",
            f"in-RAM footprint (adjacency + index): {in_ram_estimate_mb:,.0f} MB",
            f"peak RSS during mmap leg: {mmap_rss.peak_mb:,.0f} MB "
            f"(baseline {baseline_mb:,.0f} MB)",
            f"warm query median: {warm_ms:.2f} ms",
        ]

        if not SMOKE:
            assert SCALE_CONFIG.num_vertices >= 1_000_000
            # The point of the tier: the whole out-of-core leg must stay
            # well below what the RAM tier would hold resident.
            assert mmap_rss.peak_mb < 0.5 * in_ram_estimate_mb, (
                f"mmap leg peak RSS {mmap_rss.peak_mb:.0f} MB not well below "
                f"in-RAM footprint {in_ram_estimate_mb:.0f} MB"
            )

        # ---- Leg 2: RAM reference (full mode only at scale) ----------
        if not SMOKE:
            network_ram = streaming_bibliographic_network(SCALE_CONFIG, seed=SEED)
            t0 = time.perf_counter()
            detector_ram = OutlierDetector(network_ram, strategy="pm")
            ram_build_seconds = time.perf_counter() - t0
            ram_warm_ms, _ = _warm_latencies(detector_ram, queries)
            ram_scores = _scores_of(detector_ram, queries)
            assert ram_scores == mmap_scores, "full-scale ram/mmap score drift"
            payload["ram_leg"] = {
                "build_seconds": round(ram_build_seconds, 2),
                "warm_query_median_ms": round(ram_warm_ms, 3),
                "index_ram_mb": round(detector_ram.index_size_bytes() / 1e6, 1),
            }
            lines += [
                "",
                f"RAM reference: in-core build {ram_build_seconds:.1f}s, "
                f"index {detector_ram.index_size_bytes() / 1e6:,.0f} MB resident, "
                f"warm query median {ram_warm_ms:.2f} ms",
                f"warm-path ratio mmap/ram: {warm_ms / ram_warm_ms:.2f}x",
                "full-scale scores: byte-identical across tiers",
            ]
            payload["warm_ratio"] = round(warm_ms / ram_warm_ms, 3)
            assert warm_ms <= 2.0 * ram_warm_ms, (
                f"warm mmap queries {warm_ms:.2f} ms exceed 2x the RAM tier "
                f"({ram_warm_ms:.2f} ms)"
            )
            del detector_ram, network_ram

    # ---- Leg 3: parity grid (small, exact) ---------------------------
    grid_queries = [_query(anchor, top=5) for anchor in ("a0", "a1", "a3")]
    legs = {}
    with tempfile.TemporaryDirectory(prefix="repro-grid-") as workdir:
        for storage in ("ram", "mmap"):
            kwargs = {"storage": storage}
            if storage == "mmap":
                kwargs["storage_dir"] = os.path.join(workdir, "net")
            net = streaming_bibliographic_network(GRID_CONFIG, seed=7, **kwargs)
            for build in ("incore", "blocked"):
                if build == "incore":
                    index = build_pm_index(net)
                else:
                    index = build_pm_index(
                        net,
                        block_rows=97,  # deliberately unaligned block size
                        store=MmapArrayStore(
                            os.path.join(workdir, f"{storage}-idx")
                        )
                        if storage == "mmap"
                        else None,
                    )
                detector = OutlierDetector(net, strategy="pm", index=index)
                legs[(storage, build)] = _scores_of(detector, grid_queries)

        reference = legs[("ram", "incore")]
        for key, scores in legs.items():
            assert scores == reference, f"score drift in leg {key}"

        # SPM: the byte-budgeted build in one block vs small blocks in a store.
        net = streaming_bibliographic_network(GRID_CONFIG, seed=7)
        ranked = [VertexId("author", i) for i in range(40)]
        budget = 200_000
        bounded_index, admitted = build_spm_index(net, ranked, max_bytes=budget)
        blocked_index, admitted_blocked = build_spm_index(
            net,
            ranked,
            max_bytes=budget,
            block_rows=7,
            store=MmapArrayStore(os.path.join(workdir, "spm")),
        )
        assert admitted == admitted_blocked
        spm_queries = [_query("a0", top=5)]
        spm_a = _scores_of(
            OutlierDetector(net, strategy="spm", index=bounded_index), spm_queries
        )
        spm_b = _scores_of(
            OutlierDetector(net, strategy="spm", index=blocked_index), spm_queries
        )
        assert spm_a == spm_b, "SPM one-block/blocked score drift"

    payload["parity"] = {
        "pm_grid_legs": sorted("/".join(k) for k in legs),
        "pm_grid_identical": True,
        "spm_admitted": len(admitted),
        "spm_identical": True,
    }
    lines += [
        "",
        "parity grid (ram/mmap x in-core/blocked): scores byte-identical "
        f"across {len(legs)} legs",
        f"SPM bounded vs blocked: {len(admitted)} vertices admitted, "
        "scores byte-identical",
    ]

    report("outofcore_scale", "\n".join(lines))
    json_report("BENCH_scale", payload)
