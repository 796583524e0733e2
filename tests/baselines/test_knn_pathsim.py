"""Tests for :mod:`repro.baselines.knn_outlier` and :mod:`repro.baselines.pathsim`."""

import numpy as np
import pytest

from repro.baselines.knn_outlier import knn_distance_scores, top_k_distance_outliers
from repro.baselines.pathsim import pathsim_matrix, pathsim_top_k
from repro.exceptions import MeasureError
from repro.metapath.materialize import materialize
from repro.metapath.metapath import MetaPath

PV = MetaPath.parse("author.paper.venue")


def pathsim_between(network, a, b):
    """PathSim of two authors along ``PV``, read off the pairwise matrix."""
    return pathsim_matrix(materialize(network, PV))[a.index, b.index]


class TestKnnOutlier:
    def test_isolated_point_has_largest_score(self):
        rng = np.random.default_rng(0)
        cluster = rng.normal(0, 0.2, size=(30, 2))
        points = np.vstack([cluster, [[9.0, 9.0]]])
        scores = knn_distance_scores(points, k=3)
        assert np.argmax(scores) == 30

    def test_top_k_selection(self):
        rng = np.random.default_rng(1)
        cluster = rng.normal(0, 0.2, size=(30, 2))
        points = np.vstack([cluster, [[9.0, 9.0]], [[-8.0, 7.0]]])
        top = top_k_distance_outliers(points, n_outliers=2, k=3)
        assert set(top) == {30, 31}

    def test_k_bounds(self):
        points = np.zeros((4, 2))
        with pytest.raises(MeasureError):
            knn_distance_scores(points, k=4)
        with pytest.raises(MeasureError):
            knn_distance_scores(points, k=0)

    def test_duplicate_points_zero_score(self):
        points = np.zeros((5, 2))
        scores = knn_distance_scores(points, k=2)
        np.testing.assert_allclose(scores, 0.0)

    def test_ties_break_by_index(self):
        points = np.array([[0.0], [0.0], [10.0], [10.0]])
        top = top_k_distance_outliers(points, n_outliers=2, k=1)
        assert top == [0, 1]


class TestPathSim:
    def test_figure2_pathsim(self, figure2):
        """PathSim(Jim, Mary) = 2·28 / (56 + 14) = 0.8."""
        jim = figure2.find_vertex("author", "Jim")
        mary = figure2.find_vertex("author", "Mary")
        assert pathsim_between(figure2, jim, mary) == pytest.approx(0.8)

    def test_self_similarity_is_one(self, figure2):
        jim = figure2.find_vertex("author", "Jim")
        assert pathsim_between(figure2, jim, jim) == 1.0

    def test_symmetry(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        liam = figure1.find_vertex("author", "Liam")
        assert pathsim_between(figure1, zoe, liam) == pathsim_between(figure1, liam, zoe)

    def test_wrong_type_rejected(self, figure1):
        kdd = figure1.find_vertex("venue", "KDD")
        with pytest.raises(MeasureError):
            pathsim_top_k(figure1, PV, kdd)

    def test_disconnected_vertices_zero(self, figure1):
        lonely = figure1.add_vertex("author", "Lonely")
        zoe = figure1.find_vertex("author", "Zoe")
        assert pathsim_between(figure1, lonely, zoe) == 0.0

    def test_matrix_diagonal_is_one_for_visible(self, figure1):
        phi = materialize(figure1, PV)
        matrix = pathsim_matrix(phi)
        np.testing.assert_allclose(np.diag(matrix), 1.0)

    def test_matrix_symmetric(self, figure2):
        matrix = pathsim_matrix(materialize(figure2, PV))
        np.testing.assert_allclose(matrix, matrix.T)

    def test_top_k_search(self, figure2):
        jim = figure2.find_vertex("author", "Jim")
        results = pathsim_top_k(figure2, PV, jim, k=1)
        name = figure2.vertex_name(results[0][0])
        assert name == "Mary"
        assert results[0][1] == pytest.approx(0.8)

    def test_top_k_excludes_self_by_default(self, figure2):
        jim = figure2.find_vertex("author", "Jim")
        results = pathsim_top_k(figure2, PV, jim, k=5)
        assert all(v != jim for v, __ in results)

    def test_top_k_include_self(self, figure2):
        jim = figure2.find_vertex("author", "Jim")
        results = pathsim_top_k(figure2, PV, jim, k=1, include_self=True)
        assert results[0][0] == jim

    def test_top_k_invalid_k(self, figure2):
        jim = figure2.find_vertex("author", "Jim")
        with pytest.raises(MeasureError):
            pathsim_top_k(figure2, PV, jim, k=0)
