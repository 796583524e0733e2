"""Integration tests reproducing the paper's case studies (Tables 3 and 5).

These run full queries over the planted hub ego corpus and assert the
*shape* of the paper's findings:

* Table 3 — NetOut's top outliers are established cross-field authors;
  PathSim and CosSim are biased toward authors with almost no papers.
* Table 5, query 1 vs query 2 — judging by venues vs by coauthors yields
  substantially different rankings (outlier semantics are query-relative).
* Table 5, query 3 — the ``NULL`` missing-data artifact surfaces as a top
  outlier among a venue's authors.
"""

import pytest

from repro.engine.detector import OutlierDetector

VENUE_QUERY = (
    'FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author '
    "JUDGED BY author.paper.venue TOP 10;"
)
COAUTHOR_QUERY = (
    'FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author '
    "JUDGED BY author.paper.author TOP 10;"
)


@pytest.fixture(scope="module")
def detectors(ego_corpus):
    return {
        name: OutlierDetector(ego_corpus.network, strategy="pm", measure=name)
        for name in ("netout", "pathsim", "cossim")
    }


class TestTable3MeasureComparison:
    def test_netout_top5_are_established_cross_field(self, ego_corpus, detectors):
        top5 = detectors["netout"].detect(VENUE_QUERY).names()[:5]
        assert set(top5) == set(ego_corpus.cross_field)

    def test_pathsim_top5_are_low_visibility(self, ego_corpus, detectors):
        top5 = detectors["pathsim"].detect(VENUE_QUERY).names()[:5]
        assert set(top5) == set(ego_corpus.students)

    def test_cossim_top5_are_low_visibility(self, ego_corpus, detectors):
        top5 = detectors["cossim"].detect(VENUE_QUERY).names()[:5]
        assert set(top5) == set(ego_corpus.students)

    def test_netout_does_not_exclude_students_entirely(self, ego_corpus, detectors):
        """Tseng's lesson: NetOut doesn't discriminate by visibility —
        the single-paper students still appear in the top-10."""
        top10 = detectors["netout"].detect(VENUE_QUERY).names()
        assert set(ego_corpus.students) & set(top10)

    def test_netout_outliers_have_wide_visibility_range(self, ego_corpus, detectors):
        """Paper: NetOut's outliers range from ~30 to ~300 papers."""
        network = ego_corpus.network
        top5 = detectors["netout"].detect(VENUE_QUERY).names()[:5]
        degrees = [
            network.degree(network.find_vertex("author", name), "paper")
            for name in top5
        ]
        assert max(degrees) / max(min(degrees), 1) > 1.5

    def test_pathsim_outliers_have_tiny_records(self, ego_corpus, detectors):
        """Paper: all top-5 PathSim outliers have fewer than ~2 papers."""
        network = ego_corpus.network
        top5 = detectors["pathsim"].detect(VENUE_QUERY).names()[:5]
        for name in top5:
            assert network.degree(network.find_vertex("author", name), "paper") <= 2


class TestTable5QuerySensitivity:
    def test_venue_and_coauthor_judgments_differ(self, detectors):
        """Table 5: two judgments over the same candidates barely overlap."""
        by_venue = detectors["netout"].detect(VENUE_QUERY).names()
        by_coauthor = detectors["netout"].detect(COAUTHOR_QUERY).names()
        overlap = set(by_venue) & set(by_coauthor)
        assert len(overlap) <= 5
        assert by_venue != by_coauthor

    def test_normal_coauthors_are_not_venue_outliers(self, ego_corpus, detectors):
        top5 = detectors["netout"].detect(VENUE_QUERY).names()[:5]
        assert not set(top5) & set(ego_corpus.normal_coauthors)


class TestTable5NullArtifact:
    def test_null_author_surfaces_for_its_venue(self):
        """A venue whose author roster includes the NULL missing-data marker
        ranks NULL among the top outliers by publishing venues."""
        from repro.datagen.synthetic import (
            BibliographicNetworkGenerator,
            GeneratorConfig,
        )

        # The paper's corpus is ~1000x larger, so even a tiny missing-author
        # rate gives NULL an enormous scattered record; at our scale the rate
        # must be higher for NULL to accumulate the same kind of profile
        # (its visibility grows quadratically with records per venue, which
        # is what drives its Ω toward 1).
        config = GeneratorConfig(
            num_communities=5,
            authors_per_community=40,
            venues_per_community=6,
            papers_per_community=400,
            missing_author_prob=0.05,
        )
        generator = BibliographicNetworkGenerator(config, seed=11)
        network = generator.build_network()
        assert network.has_vertex("author", "NULL")
        # Pick the biggest venue NULL has published in.
        null_author = network.find_vertex("author", "NULL")
        venues = network.neighbor_counts(null_author, "paper")
        assert venues, "NULL must have papers"
        # Query a venue the NULL marker actually published in.
        from repro.metapath.counting import neighborhood
        from repro.metapath.metapath import MetaPath

        null_venues = {
            network.vertex_name(v)
            for v in neighborhood(
                network, MetaPath.parse("author.paper.venue"), null_author
            )
        }
        central_venue = next(
            name
            for name in (generator.venue_name(0, r) for r in range(6))
            if name in null_venues
        )
        detector = OutlierDetector(network, strategy="pm")
        result = detector.detect(
            f'FIND OUTLIERS FROM venue{{"{central_venue}"}}.paper.author '
            "JUDGED BY author.paper.venue TOP 10;"
        )
        # The NULL marker has papers scattered over every community's venues,
        # so relative to this venue's regulars it is a strong outlier.
        assert "NULL" in result.names()


class TestCrossStrategyConsistency:
    def test_all_strategies_agree_on_case_study(self, ego_corpus):
        from repro.datagen.workloads import generate_query_set
        from repro.query.templates import TEMPLATE_Q1

        network = ego_corpus.network
        workload = generate_query_set(network, TEMPLATE_Q1, 20, seed=3)
        rankings = {}
        for strategy in ("baseline", "pm", "spm"):
            kwargs = {}
            if strategy == "spm":
                kwargs = {"spm_workload": workload, "spm_threshold": 0.05}
            detector = OutlierDetector(network, strategy=strategy, **kwargs)
            results, __ = detector.detect_many(workload)
            rankings[strategy] = [tuple(r.names()) for r in results]
        assert rankings["baseline"] == rankings["pm"] == rankings["spm"]
