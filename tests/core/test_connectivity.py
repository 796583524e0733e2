"""Tests for :mod:`repro.core.connectivity` — the paper's Section 5.1 examples."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.connectivity import (
    connectivity,
    connectivity_matrix,
    normalized_connectivity,
    visibilities,
    visibility,
)
from repro.exceptions import MeasureError
from repro.metapath.materialize import materialize_row
from repro.metapath.metapath import MetaPath

PV = MetaPath.parse("author.paper.venue")


class TestFigure2Example:
    """Exact numbers from Section 5.1 / Figure 2."""

    @pytest.fixture()
    def vectors(self, figure2):
        jim = figure2.find_vertex("author", "Jim")
        mary = figure2.find_vertex("author", "Mary")
        return (
            materialize_row(figure2, PV, jim),
            materialize_row(figure2, PV, mary),
        )

    def test_connectivity_is_28(self, vectors):
        phi_jim, phi_mary = vectors
        assert connectivity(phi_jim, phi_mary) == 28.0

    def test_visibilities(self, vectors):
        phi_jim, phi_mary = vectors
        assert visibility(phi_jim) == 56.0  # 4² + 2² + 6²
        assert visibility(phi_mary) == 14.0  # 2² + 1² + 3²

    def test_normalized_connectivity_asymmetric(self, vectors):
        phi_jim, phi_mary = vectors
        assert normalized_connectivity(phi_jim, phi_mary) == 0.5
        assert normalized_connectivity(phi_mary, phi_jim) == 2.0

    def test_self_normalized_connectivity_is_one(self, vectors):
        phi_jim, phi_mary = vectors
        assert normalized_connectivity(phi_jim, phi_jim) == 1.0
        assert normalized_connectivity(phi_mary, phi_mary) == 1.0


class TestConnectivity:
    def test_dense_and_sparse_agree(self):
        dense_a = np.array([1.0, 2.0, 0.0])
        dense_b = np.array([0.0, 3.0, 4.0])
        sparse_a = sparse.csr_matrix(dense_a)
        sparse_b = sparse.csr_matrix(dense_b)
        expected = 6.0
        assert connectivity(dense_a, dense_b) == expected
        assert connectivity(sparse_a, sparse_b) == expected
        assert connectivity(dense_a, sparse_b) == expected

    def test_symmetry(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        assert connectivity(a, b) == connectivity(b, a)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MeasureError, match="different dimensions"):
            connectivity(np.array([1.0]), np.array([1.0, 2.0]))

    def test_matrix_input_rejected(self):
        with pytest.raises(MeasureError):
            connectivity(np.ones((2, 2)), np.ones(2))

    def test_multi_row_sparse_rejected(self):
        with pytest.raises(MeasureError, match="single row"):
            connectivity(sparse.csr_matrix(np.ones((2, 2))), np.ones(2))


class TestVisibility:
    def test_zero_vector(self):
        assert visibility(np.zeros(4)) == 0.0

    def test_matches_squared_norm(self):
        vector = np.array([1.0, -2.0, 3.0])
        assert visibility(vector) == pytest.approx(np.dot(vector, vector))

    def test_visibilities_rowwise(self):
        matrix = np.array([[1.0, 2.0], [0.0, 3.0], [0.0, 0.0]])
        np.testing.assert_allclose(visibilities(matrix), [5.0, 9.0, 0.0])

    def test_visibilities_sparse(self):
        matrix = sparse.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        np.testing.assert_allclose(visibilities(matrix), [5.0, 9.0])

    def test_visibilities_sums_duplicate_entries_before_squaring(self):
        """A hand-built CSR may store an entry twice: (1 + 2)² = 9, not 1 + 4."""
        matrix = sparse.csr_matrix(
            (np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0]), np.array([0, 2, 2, 3])),
            shape=(3, 2),
        )
        assert not matrix.has_canonical_format
        np.testing.assert_array_equal(visibilities(matrix), [9.0, 0.0, 9.0])
        assert matrix.nnz == 3  # the caller's matrix is left as it was

    def test_visibilities_of_empty_rows_and_matrices(self):
        assert visibilities(sparse.csr_matrix((3, 4))).tolist() == [0.0, 0.0, 0.0]
        assert visibilities(sparse.csr_matrix((0, 4))).tolist() == []


class TestNormalizedConnectivity:
    def test_zero_visibility_returns_zero(self):
        assert normalized_connectivity(np.zeros(3), np.ones(3)) == 0.0

    def test_random_walk_interpretation(self):
        """κ(a, b) > 1 iff a is more connected to b than to itself."""
        a = np.array([1.0, 0.0])
        b = np.array([5.0, 0.0])
        assert normalized_connectivity(a, b) == 5.0
        assert normalized_connectivity(b, a) == pytest.approx(0.2)


class TestConnectivityMatrix:
    def test_matches_pairwise(self):
        rng = np.random.default_rng(0)
        candidates = rng.integers(0, 3, size=(4, 6)).astype(float)
        reference = rng.integers(0, 3, size=(5, 6)).astype(float)
        matrix = connectivity_matrix(candidates, reference)
        for i in range(4):
            for j in range(5):
                assert matrix[i, j] == pytest.approx(
                    connectivity(candidates[i], reference[j])
                )

    def test_sparse_inputs(self):
        candidates = sparse.csr_matrix(np.eye(3))
        reference = sparse.csr_matrix(np.ones((2, 3)))
        matrix = connectivity_matrix(candidates, reference)
        np.testing.assert_allclose(matrix, np.ones((3, 2)))
