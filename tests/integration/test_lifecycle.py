"""Full-lifecycle integration: generate → persist → reload → index → query.

Exercises the complete operational story a downstream user follows: build a
corpus, save it, reload it in a "new process", build and persist an index,
reload the index, run queries under every strategy, and export results —
asserting bit-identical behaviour across the persistence boundary.
"""

import io
import json

import pytest

from repro.datagen.synthetic import GeneratorConfig, hub_ego_corpus
from repro.engine.detector import OutlierDetector
from repro.engine.index import build_pm_index
from repro.engine.index_io import load_index, save_index
from repro.engine.optimizer import WorkloadAnalyzer
from repro.engine.strategies import PMStrategy, SPMStrategy
from repro.datagen.workloads import generate_query_set
from repro.hin.io import load_json, save_json
from repro.query.templates import TEMPLATE_Q1

QUERY = (
    'FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author '
    "JUDGED BY author.paper.venue TOP 5;"
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("lifecycle")


@pytest.fixture(scope="module")
def original_corpus():
    config = GeneratorConfig(
        num_communities=3,
        authors_per_community=80,
        venues_per_community=6,
        papers_per_community=300,
    )
    return hub_ego_corpus(config=config)


class TestLifecycle:
    def test_full_cycle(self, workdir, original_corpus):
        network = original_corpus.network
        network_path = workdir / "corpus.json"
        index_path = workdir / "pm-index"

        # 1. Persist the network and the PM index.
        save_json(network, network_path)
        save_index(build_pm_index(network), index_path)

        # 2. "New process": reload both.
        reloaded = load_json(network_path)
        index = load_index(index_path)

        # 3. Queries over the reloaded artifacts match the originals.
        expected = OutlierDetector(network, strategy="pm").detect(QUERY)
        actual = OutlierDetector(
            reloaded, strategy=PMStrategy(reloaded, index=index)
        ).detect(QUERY)
        assert actual.names() == expected.names()
        for entry_a, entry_b in zip(actual.outliers, expected.outliers):
            assert entry_a.score == pytest.approx(entry_b.score)

    def test_spm_lifecycle_with_workload(self, workdir, original_corpus):
        network = original_corpus.network
        workload = generate_query_set(network, TEMPLATE_Q1, 20, seed=3)
        analyzer = WorkloadAnalyzer(network)
        analyzer.analyze_many(workload)
        index = analyzer.build_index(0.05)
        spm_path = workdir / "spm-index"
        save_index(index, spm_path)

        reloaded_net = load_json(workdir / "corpus.json")
        reloaded_index = load_index(spm_path)
        detector = OutlierDetector(
            reloaded_net, strategy=SPMStrategy(reloaded_net, index=reloaded_index)
        )
        results, stats = detector.detect_many(workload)
        assert results
        assert stats.indexed_vectors > 0

        baseline = OutlierDetector(network)
        baseline_results, __ = baseline.detect_many(workload)
        assert [r.names() for r in results] == [r.names() for r in baseline_results]

    def test_result_export_round_trip(self, original_corpus):
        result = OutlierDetector(original_corpus.network, strategy="pm").detect(QUERY)
        payload = json.loads(result.to_json())
        assert [o["name"] for o in payload["outliers"]] == result.names()
        buffer = io.StringIO()
        assert result.to_csv(buffer) == len(result)

    def test_networkx_round_trip_preserves_query_results(self, original_corpus):
        from repro.hin.interop import from_networkx, to_networkx

        network = original_corpus.network
        round_tripped = from_networkx(to_networkx(network))
        expected = OutlierDetector(network, strategy="pm").detect(QUERY)
        actual = OutlierDetector(round_tripped, strategy="pm").detect(QUERY)
        assert actual.names() == expected.names()
