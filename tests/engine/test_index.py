"""Tests for :mod:`repro.engine.index`."""

import pytest

from repro.engine.index import MetaPathIndex, build_pm_index, build_spm_index
from repro.exceptions import ExecutionError
from repro.hin.network import VertexId
from repro.metapath.materialize import materialize
from repro.metapath.metapath import MetaPath
from repro.utils.sparsetools import csr_storage_bytes, sparse_row_bytes

PV = MetaPath.parse("author.paper.venue")
PCA = MetaPath.parse("author.paper.author")


def _same(left, right) -> bool:
    return (left != right).nnz == 0


class TestMetaPathIndex:
    def test_full_matrix_gather(self, figure1):
        index = MetaPathIndex()
        matrix = materialize(figure1, PV)
        index.store_full(PV, matrix)
        zoe = figure1.find_vertex("author", "Zoe")
        assert _same(index.gather_rows(PV, [zoe.index]), matrix.getrow(zoe.index))
        assert index.coverage_mask(PV, matrix.shape[0]) is None

    def test_missing_path_has_no_rows(self):
        index = MetaPathIndex()
        assert not index.has_row(PV, 0)
        assert not index.coverage_mask(PV, 3).any()
        with pytest.raises(ExecutionError, match="no stored row"):
            index.gather_rows(PV, [0])

    def test_full_gather_out_of_range_rejected(self, figure1):
        index = MetaPathIndex()
        index.store_full(PV, materialize(figure1, PV))
        assert not index.has_row(PV, 999)
        with pytest.raises(ExecutionError, match="no stored row"):
            index.gather_rows(PV, [999])

    def test_partial_rows(self, figure1):
        index = MetaPathIndex()
        matrix = materialize(figure1, PV)
        index.store_rows(PV, [2, 0], matrix[[2, 0], :])
        assert index.has_row(PV, 0) and index.has_row(PV, 2)
        assert not index.has_row(PV, 1)
        assert not index.has_row(PV, -1) and not index.has_row(PV, 999)
        assert index.coverage_mask(PV, 3).tolist() == [True, False, True]
        # Rows come back in request order, whatever the stored order.
        assert _same(index.gather_rows(PV, [0, 2, 0]), matrix[[0, 2, 0], :])
        with pytest.raises(ExecutionError, match="no stored row"):
            index.gather_rows(PV, [0, 1])

    def test_store_rows_replaces_and_invalidates_coverage(self, figure1):
        index = MetaPathIndex()
        matrix = materialize(figure1, PV)
        index.store_rows(PV, [0], matrix[[0], :])
        assert index.coverage_mask(PV, 3).tolist() == [True, False, False]
        index.store_rows(PV, [1], matrix[[1], :])
        assert index.coverage_mask(PV, 3).tolist() == [False, True, False]
        assert not index.has_row(PV, 0)

    def test_partial_after_full_rejected(self, figure1):
        index = MetaPathIndex()
        matrix = materialize(figure1, PV)
        index.store_full(PV, matrix)
        with pytest.raises(ExecutionError, match="full matrix"):
            index.store_rows(PV, [0], matrix[[0], :])

    def test_full_supersedes_partial(self, figure1):
        index = MetaPathIndex()
        matrix = materialize(figure1, PV)
        index.store_rows(PV, [0], matrix[[0], :])
        index.store_full(PV, matrix)
        assert index.full_matrix(PV) is not None
        assert index.has_row(PV, 1)
        assert index.paths == [PV]

    def test_row_count_mismatch_rejected(self, figure1):
        index = MetaPathIndex()
        matrix = materialize(figure1, PV)
        with pytest.raises(ExecutionError, match="vertex indices"):
            index.store_rows(PV, [0], matrix)

    @pytest.mark.parametrize("vertices", [[0, 0], [0, -1]])
    def test_bad_vertex_indices_rejected(self, figure1, vertices):
        index = MetaPathIndex()
        matrix = materialize(figure1, PV)
        with pytest.raises(ExecutionError, match="duplicate|negative"):
            index.store_rows(PV, vertices, matrix[[0, 1], :])

    def test_size_bytes_accounting(self, figure1):
        index = MetaPathIndex()
        matrix = materialize(figure1, PV)
        index.store_full(PV, matrix)
        assert index.size_bytes() == csr_storage_bytes(matrix)

    def test_partial_size_is_priced_per_row(self, figure1):
        index = MetaPathIndex()
        matrix = materialize(figure1, PCA)
        index.store_rows(PCA, [0], matrix[[0], :])
        first = index.size_bytes()
        assert first == sparse_row_bytes(matrix[[0], :].nnz)
        index.store_rows(PCA, [0, 1], matrix[[0, 1], :])
        assert index.size_bytes() == first + sparse_row_bytes(matrix[[1], :].nnz)

    def test_row_count(self, figure1):
        index = MetaPathIndex()
        matrix = materialize(figure1, PV)
        index.store_full(PV, matrix)
        index.store_rows(PCA, [0], materialize(figure1, PCA)[[0], :])
        assert index.row_count() == matrix.shape[0] + 1
        assert index.coverage_summary()["rows_per_path"] == {
            str(PV): matrix.shape[0],
            str(PCA): 1,
        }

    def test_paths_listing(self, figure1):
        index = MetaPathIndex()
        index.store_full(PV, materialize(figure1, PV))
        index.store_rows(PCA, [0], materialize(figure1, PCA)[[0], :])
        assert set(index.paths) == {PV, PCA}

    def test_export_round_trip_keeps_partial_rows(self, figure1):
        index = MetaPathIndex()
        matrix = materialize(figure1, PCA)
        index.store_full(PV, materialize(figure1, PV))
        index.store_rows(PCA, [2, 0], matrix[[2, 0], :])
        restored = MetaPathIndex.from_arrays(*index.export_arrays())
        assert _same(restored.full_matrix(PV), index.full_matrix(PV))
        assert _same(restored.gather_rows(PCA, [0, 2]), matrix[[0, 2], :])
        assert not restored.has_row(PCA, 1)
        assert restored.size_bytes() == index.size_bytes()


class TestBuildPMIndex:
    def test_all_length2_paths_materialized(self, figure1):
        index = build_pm_index(figure1)
        for types in figure1.schema.length2_metapaths():
            path = MetaPath(types)
            matrix = index.full_matrix(path)
            assert matrix is not None
            expected = materialize(figure1, path)
            assert (matrix != expected).nnz == 0

    def test_index_covers_12_paths(self, figure1):
        index = build_pm_index(figure1)
        assert len(index.paths) == 12


class TestBuildSPMIndex:
    def test_rows_only_for_selected(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        index, admitted = build_spm_index(figure1, [zoe])
        assert admitted == [zoe]
        assert index.has_row(PV, zoe.index)
        assert index.has_row(PCA, zoe.index)
        other = (zoe.index + 1) % figure1.num_vertices("author")
        assert not index.has_row(PV, other)

    def test_rows_match_materialization(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        index, _ = build_spm_index(figure1, [zoe])
        expected = materialize(figure1, PV).getrow(zoe.index)
        assert _same(index.gather_rows(PV, [zoe.index]), expected)

    def test_empty_selection(self, figure1):
        index, admitted = build_spm_index(figure1, [])
        assert admitted == []
        assert index.size_bytes() == 0
        assert index.row_count() == 0

    def test_selected_vertices_of_multiple_types(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        kdd = figure1.find_vertex("venue", "KDD")
        index, _ = build_spm_index(figure1, [zoe, kdd])
        assert index.has_row(MetaPath.parse("venue.paper.author"), kdd.index)
        assert index.has_row(PCA, zoe.index)

    def test_spm_smaller_than_pm(self, small_corpus):
        zoe = VertexId("author", 0)
        spm, _ = build_spm_index(small_corpus, [zoe])
        pm = build_pm_index(small_corpus)
        assert spm.size_bytes() < pm.size_bytes()

    def test_repeated_vertex_is_indexed_once(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        index, admitted = build_spm_index(figure1, [zoe, zoe])
        assert admitted == [zoe]
        assert index.size_bytes() == build_spm_index(figure1, [zoe])[0].size_bytes()
