"""Moderate-scale integration: correctness and sanity at ~10x test size.

Runs a ~20k-paper corpus through index build, query execution under all
strategies, and the progressive executor — asserting cross-strategy
agreement and basic performance sanity (PM beats baseline).  Kept to a few
seconds of wall time so the suite stays fast.
"""

import time

import pytest

from repro.datagen.synthetic import (
    BibliographicNetworkGenerator,
    EgoNetworkSpec,
    GeneratorConfig,
    hub_ego_corpus,
)
from repro.datagen.workloads import generate_query_set
from repro.engine.detector import OutlierDetector
from repro.query.templates import TEMPLATE_Q1


@pytest.fixture(scope="module")
def large_corpus():
    config = GeneratorConfig(
        num_communities=6,
        authors_per_community=400,
        venues_per_community=12,
        terms_per_community=300,
        common_terms=60,
        papers_per_community=3200,
    )
    return hub_ego_corpus(
        config=config,
        spec=EgoNetworkSpec(
            hub_papers=100,
            cross_field_papers=(250, 400),
            cross_field_home_papers=4,
            seed=99,
        ),
    )


class TestScale:
    def test_corpus_scale(self, large_corpus):
        network = large_corpus.network
        assert network.num_vertices("paper") > 19_000
        assert network.num_vertices("author") > 2_000

    def test_strategies_agree_at_scale(self, large_corpus):
        network = large_corpus.network
        workload = generate_query_set(network, TEMPLATE_Q1, 12, seed=1)
        rankings = {}
        timings = {}
        for strategy in ("baseline", "pm"):
            detector = OutlierDetector(network, strategy=strategy)
            start = time.perf_counter()
            results, __ = detector.detect_many(workload)
            timings[strategy] = time.perf_counter() - start
            rankings[strategy] = [tuple(r.names()) for r in results]
        assert rankings["baseline"] == rankings["pm"]
        # Index build happens inside the PM constructor, not the timing
        # window — queries themselves must be faster.
        assert timings["pm"] < timings["baseline"]

    def test_case_study_shape_survives_scale(self, large_corpus):
        network = large_corpus.network
        detector = OutlierDetector(network, strategy="pm")
        result = detector.detect(
            f'FIND OUTLIERS FROM author{{"{large_corpus.hub}"}}.paper.author '
            "JUDGED BY author.paper.venue TOP 5;"
        )
        assert set(result.names()) == set(large_corpus.cross_field)

    def test_progressive_matches_exact_at_scale(self, large_corpus):
        from repro.engine.progressive import ProgressiveQueryExecutor
        from repro.engine.strategies import PMStrategy

        network = large_corpus.network
        query = (
            f'FIND OUTLIERS FROM author{{"{large_corpus.hub}"}}.paper.author '
            "JUDGED BY author.paper.venue TOP 5;"
        )
        strategy = PMStrategy(network)
        exact = OutlierDetector(network, strategy=strategy).detect(query)
        progressive = ProgressiveQueryExecutor(strategy, chunk_size=32, seed=0)
        result, snapshot = progressive.execute(query, early_stop=False)
        assert snapshot.complete
        assert result.names() == exact.names()
