"""Tests for :mod:`repro.utils` (rng, timers, sparsetools, validation)."""

import time

import numpy as np
import pytest
from scipy import sparse

from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.sparsetools import (
    as_dense_1d,
    csr_row_nnz,
    csr_storage_bytes,
    row_vector,
    sparse_row_bytes,
)
from repro.utils.timers import PhaseTimer
from repro.utils.validation import (
    require,
    require_positive,
    require_probability,
    require_type,
)


class TestRng:
    def test_ensure_rng_from_int(self):
        first = ensure_rng(7)
        second = ensure_rng(7)
        assert first.integers(1000) == second.integers(1000)

    def test_ensure_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_ensure_rng_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_spawn_rng_children_independent(self):
        parent = ensure_rng(0)
        children = spawn_rng(parent, 3)
        assert len(children) == 3
        draws = {tuple(c.integers(0, 100, 5)) for c in children}
        assert len(draws) == 3

    def test_spawn_rng_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rng(ensure_rng(0), -1)


class TestPhaseTimer:
    def test_phase_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            time.sleep(0.005)
        with timer.phase("a"):
            pass
        assert timer.total("a") >= 0.004
        assert timer.counts["a"] == 2

    def test_unknown_phase_is_zero(self):
        assert PhaseTimer().total("missing") == 0.0

    def test_add_manual(self):
        timer = PhaseTimer()
        timer.add("x", 1.5)
        timer.add("x", 0.5)
        assert timer.total("x") == 2.0

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            PhaseTimer().add("x", -1.0)

    def test_merge(self):
        first = PhaseTimer()
        first.add("a", 1.0)
        second = PhaseTimer()
        second.add("a", 2.0)
        second.add("b", 3.0)
        first.merge(second)
        assert first.total("a") == 3.0
        assert first.total("b") == 3.0
        assert sum(first.totals.values()) == 6.0

    def test_reset(self):
        timer = PhaseTimer()
        timer.add("a", 1.0)
        timer.reset()
        assert timer.totals == {} and timer.counts == {}

    def test_exception_inside_phase_still_recorded(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("a"):
                raise RuntimeError("boom")
        assert timer.counts["a"] == 1


class TestSparseTools:
    @pytest.fixture()
    def matrix(self):
        return sparse.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))

    def test_row_vector(self, matrix):
        row = row_vector(matrix, 0)
        assert row.shape == (1, 3)
        assert row.nnz == 2

    def test_row_vector_out_of_range(self, matrix):
        with pytest.raises(IndexError):
            row_vector(matrix, 5)

    def test_csr_row_nnz(self, matrix):
        assert csr_row_nnz(matrix, 0) == 2
        assert csr_row_nnz(matrix, 1) == 0

    def test_csr_row_nnz_out_of_range(self, matrix):
        with pytest.raises(IndexError):
            csr_row_nnz(matrix, -1)

    def test_sparse_row_bytes(self):
        assert sparse_row_bytes(0) == 8
        assert sparse_row_bytes(10) == 10 * 12 + 8

    def test_sparse_row_bytes_negative(self):
        with pytest.raises(ValueError):
            sparse_row_bytes(-1)

    def test_csr_storage_bytes(self, matrix):
        expected = 2 * 12 + 3 * 8  # nnz * (8+4) + (rows+1) * 8
        assert csr_storage_bytes(matrix) == expected

    def test_as_dense_1d(self, matrix):
        np.testing.assert_allclose(as_dense_1d(matrix.getrow(0)), [1.0, 0.0, 2.0])
        np.testing.assert_allclose(as_dense_1d(np.array([1, 2])), [1.0, 2.0])


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        require_positive(1.0, "x")
        with pytest.raises(ValueError):
            require_positive(0.0, "x")

    def test_require_probability(self):
        require_probability(0.0, "p")
        require_probability(1.0, "p")
        with pytest.raises(ValueError):
            require_probability(1.01, "p")

    def test_require_type(self):
        require_type("s", str, "x")
        require_type(1, (int, float), "x")
        with pytest.raises(TypeError, match="int, float"):
            require_type("s", (int, float), "x")
