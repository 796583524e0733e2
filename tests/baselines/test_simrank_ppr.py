"""Tests for :mod:`repro.baselines.simrank` and :mod:`repro.baselines.ppr`."""

import numpy as np
import pytest

from repro.baselines.ppr import personalized_pagerank
from repro.baselines.simrank import simrank_scores
from repro.exceptions import MeasureError
from repro.hin.network import VertexId


def simrank_between(network, a, b, **options):
    similarity, offsets = simrank_scores(network, **options)
    return similarity[offsets[a.type] + a.index, offsets[b.type] + b.index]


def ppr_of(network, seed, target):
    scores, offsets = personalized_pagerank(network, seed)
    return scores[offsets[target.type] + target.index]


class TestSimRank:
    def test_self_similarity_is_one(self, figure1):
        similarity, offsets = simrank_scores(figure1)
        np.testing.assert_allclose(np.diag(similarity), 1.0)

    def test_symmetric(self, figure1):
        similarity, __ = simrank_scores(figure1)
        np.testing.assert_allclose(similarity, similarity.T, atol=1e-12)

    def test_bounded(self, figure1):
        similarity, __ = simrank_scores(figure1)
        assert (similarity >= -1e-12).all()
        assert (similarity <= 1.0 + 1e-12).all()

    def test_coauthors_more_similar_than_strangers(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        liam = figure1.find_vertex("author", "Liam")
        lonely = figure1.add_vertex("author", "Lonely")
        close = simrank_between(figure1, zoe, liam)
        far = simrank_between(figure1, zoe, lonely)
        assert close > far == 0.0

    def test_parameter_validation(self, figure1):
        with pytest.raises(MeasureError):
            simrank_scores(figure1, decay=1.5)
        with pytest.raises(MeasureError):
            simrank_scores(figure1, iterations=0)

    def test_convergence_with_more_iterations(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        liam = figure1.find_vertex("author", "Liam")
        short = simrank_between(figure1, zoe, liam, iterations=6)
        long = simrank_between(figure1, zoe, liam, iterations=12)
        assert abs(long - short) < 0.05

    def test_paper_section52_visibility_bias(self, figure2):
        """SimRank assigns Jim~Mary higher similarity than PathSim does
        relative to equal-visibility pairs — the §5.2 contrast is that
        PathSim penalizes visibility mismatch more."""
        from repro.baselines.pathsim import pathsim_matrix
        from repro.metapath.materialize import materialize
        from repro.metapath.metapath import MetaPath

        jim = figure2.find_vertex("author", "Jim")
        mary = figure2.find_vertex("author", "Mary")
        path = MetaPath.parse("author.paper.venue")
        ps = pathsim_matrix(materialize(figure2, path))[jim.index, mary.index]
        sr = simrank_between(figure2, jim, mary)
        # Jim and Mary have identical venue *profiles* up to scale (4,2,6)
        # vs (2,1,3): SimRank (structure-normalized) should not rate them
        # lower than PathSim, which divides by the mismatched visibilities.
        assert ps < 1.0
        assert sr > 0.0


class TestPersonalizedPageRank:
    def test_distribution_sums_to_one(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        scores, __ = personalized_pagerank(figure1, zoe)
        assert scores.sum() == pytest.approx(1.0, abs=1e-8)
        assert (scores >= 0).all()

    def test_seed_has_highest_score(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        scores, offsets = personalized_pagerank(figure1, zoe)
        seed_index = offsets["author"] + zoe.index
        assert np.argmax(scores) == seed_index

    def test_proximity_ordering(self, figure1):
        """Liam (2 shared papers) outranks Ava (1 shared paper) from Zoe."""
        zoe = figure1.find_vertex("author", "Zoe")
        liam = figure1.find_vertex("author", "Liam")
        ava = figure1.find_vertex("author", "Ava")
        assert ppr_of(figure1, zoe, liam) > ppr_of(figure1, zoe, ava)

    def test_disconnected_vertex_gets_zero(self, figure1):
        lonely = figure1.add_vertex("author", "Lonely")
        zoe = figure1.find_vertex("author", "Zoe")
        assert ppr_of(figure1, zoe, lonely) == 0.0

    def test_dangling_mass_conserved(self, figure1):
        """A seed with no edges keeps all mass on itself."""
        lonely = figure1.add_vertex("author", "Lonely")
        scores, offsets = personalized_pagerank(figure1, lonely)
        assert scores.sum() == pytest.approx(1.0, abs=1e-8)
        assert scores[offsets["author"] + lonely.index] == pytest.approx(1.0)

    def test_parameter_validation(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        with pytest.raises(MeasureError):
            personalized_pagerank(figure1, zoe, damping=0.0)
        with pytest.raises(MeasureError):
            personalized_pagerank(figure1, zoe, iterations=0)

    def test_asymmetry(self, figure2):
        """PPR is direction-sensitive: p(Mary | Jim) != p(Jim | Mary) in
        general (different normalizations)."""
        jim = figure2.find_vertex("author", "Jim")
        mary = figure2.find_vertex("author", "Mary")
        forward = ppr_of(figure2, jim, mary)
        backward = ppr_of(figure2, mary, jim)
        assert forward > 0 and backward > 0
