"""Tests for :mod:`repro.engine.index_io` (index persistence).

An index on disk is a committed array store; each case that damages a file
finds it through the store's manifest.
"""

import json

import numpy as np
import pytest

from repro.engine.index import build_pm_index, build_spm_index
from repro.engine.index_io import load_index, save_index
from repro.engine.strategies import PMStrategy, SPMStrategy
from repro.engine.executor import QueryExecutor
from repro.exceptions import ExecutionError
from repro.metapath.metapath import MetaPath

PV = MetaPath.parse("author.paper.venue")


def _manifest(directory):
    return json.loads((directory / "manifest.json").read_text(encoding="utf-8"))


def _data_file(directory, suffix):
    """The largest data file whose array key ends in ``suffix``."""
    files = [
        directory / entry["file"]
        for key, entry in _manifest(directory)["arrays"].items()
        if key.endswith(suffix)
    ]
    return max(files, key=lambda path: path.stat().st_size)


def _indexes_equal(first, second) -> bool:
    if set(map(str, first.paths)) != set(map(str, second.paths)):
        return False
    for path in first.paths:
        full = first.full_matrix(path)
        other = second.full_matrix(path)
        if (full is None) != (other is None):
            return False
        if full is not None:
            if (full != other).nnz != 0:
                return False
    return first.size_bytes() == second.size_bytes()


class TestRoundTrip:
    def test_pm_index_round_trip(self, figure1, tmp_path):
        index = build_pm_index(figure1)
        save_index(index, tmp_path / "pm")
        restored = load_index(tmp_path / "pm")
        assert _indexes_equal(index, restored)

    def test_spm_index_round_trip(self, figure1, tmp_path):
        zoe = figure1.find_vertex("author", "Zoe")
        ava = figure1.find_vertex("author", "Ava")
        index, _ = build_spm_index(figure1, [zoe, ava])
        save_index(index, tmp_path / "spm")
        restored = load_index(tmp_path / "spm")
        assert restored.has_row(PV, zoe.index)
        assert restored.has_row(PV, ava.index)
        rows = [zoe.index, ava.index]
        assert (
            restored.gather_rows(PV, rows) != index.gather_rows(PV, rows)
        ).nnz == 0
        assert restored.size_bytes() == index.size_bytes()

    def test_empty_index_round_trip(self, tmp_path):
        from repro.engine.index import MetaPathIndex

        save_index(MetaPathIndex(), tmp_path / "empty")
        restored = load_index(tmp_path / "empty")
        assert restored.paths == []

    def test_loaded_index_produces_identical_results(self, figure1, tmp_path):
        query = (
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 3;"
        )
        index = build_pm_index(figure1)
        save_index(index, tmp_path / "idx")
        original = QueryExecutor(PMStrategy(figure1, index=index)).execute(query)
        restored = QueryExecutor(
            PMStrategy(figure1, index=load_index(tmp_path / "idx"))
        ).execute(query)
        assert original.names() == restored.names()

    def test_loaded_spm_serves_lookups(self, figure1, tmp_path):
        zoe = figure1.find_vertex("author", "Zoe")
        save_index(build_spm_index(figure1, [zoe])[0], tmp_path / "s")
        strategy = SPMStrategy(figure1, index=load_index(tmp_path / "s"))
        from repro.engine.stats import ExecutionStats

        stats = ExecutionStats()
        strategy.neighbor_row(PV, zoe.index, stats)
        assert stats.indexed_vectors == 1


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ExecutionError, match="manifest"):
            load_index(tmp_path)

    def test_bad_version(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format_version": 99}')
        with pytest.raises(ExecutionError, match="version"):
            load_index(tmp_path)

    def test_missing_data_file(self, figure1, tmp_path):
        save_index(build_pm_index(figure1), tmp_path)
        # Delete one data file.
        _data_file(tmp_path, ":indptr").unlink()
        with pytest.raises(ExecutionError, match="missing"):
            load_index(tmp_path)

    def test_corrupt_partial_rows(self, figure1, tmp_path):
        zoe = figure1.find_vertex("author", "Zoe")
        save_index(build_spm_index(figure1, [zoe])[0], tmp_path)
        rows_file = _data_file(tmp_path, ":vertices")
        np.array([0, 1, 2], dtype=np.int64).tofile(rows_file)
        with pytest.raises(ExecutionError, match="corrupt"):
            load_index(tmp_path)

    def test_retired_archive_layout_is_unsupported(self, tmp_path):
        """A directory in the old one-archive-per-path layout is refused
        with a typed error; there is no second reader for it."""
        legacy = {
            "format_version": 1,
            "full": [{"path": "author.paper.venue", "file": "metapath_0000.npz"}],
            "partial": [],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(legacy))
        with pytest.raises(ExecutionError, match="unsupported"):
            load_index(tmp_path)

    def test_store_without_an_index_is_refused(self, tmp_path):
        from repro.hin.storage import MmapArrayStore

        store = MmapArrayStore(tmp_path)
        store.put("x", np.ones(3))
        store.commit()
        with pytest.raises(ExecutionError, match="no published index"):
            load_index(tmp_path)


class TestCorruptionSafety:
    """Truncated/garbled files surface as typed ExecutionError, never as raw
    JSON/numpy/OS tracebacks."""

    def test_garbage_manifest_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not valid json!!", encoding="utf-8")
        with pytest.raises(ExecutionError, match="corrupt array-store manifest"):
            load_index(tmp_path)

    def test_manifest_wrong_top_level_type(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ExecutionError, match="expected an object"):
            load_index(tmp_path)

    def test_manifest_binary_garbage(self, tmp_path):
        (tmp_path / "manifest.json").write_bytes(b"\x00\xff\xfe\x01garbage")
        with pytest.raises(ExecutionError, match="corrupt array-store manifest"):
            load_index(tmp_path)

    def test_manifest_entry_missing_keys(self, figure1, tmp_path):
        save_index(build_pm_index(figure1), tmp_path)
        manifest = _manifest(tmp_path)
        del next(iter(manifest["arrays"].values()))["dtype"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ExecutionError, match="corrupt array-store manifest"):
            load_index(tmp_path)

    def test_truncated_npz_data_file(self, figure1, tmp_path):
        save_index(build_pm_index(figure1), tmp_path)
        data_file = _data_file(tmp_path, ":data")
        payload = data_file.read_bytes()
        data_file.write_bytes(payload[: len(payload) // 2])  # short read
        with pytest.raises(ExecutionError, match="corrupt or truncated"):
            load_index(tmp_path)

    def test_overwritten_npz_data_file(self, figure1, tmp_path):
        save_index(build_pm_index(figure1), tmp_path)
        _data_file(tmp_path, ":data").write_bytes(b"this is not an array file")
        with pytest.raises(ExecutionError, match="corrupt or truncated"):
            load_index(tmp_path)

    def test_corrupt_rows_npy(self, figure1, tmp_path):
        zoe = figure1.find_vertex("author", "Zoe")
        save_index(build_spm_index(figure1, [zoe])[0], tmp_path)
        _data_file(tmp_path, ":vertices").write_bytes(b"\x93NUMPY garbage")
        with pytest.raises(ExecutionError, match="corrupt or truncated"):
            load_index(tmp_path)


class TestAtomicity:
    def test_no_temp_files_left_after_save(self, figure1, tmp_path):
        zoe = figure1.find_vertex("author", "Zoe")
        save_index(build_pm_index(figure1), tmp_path / "pm")
        save_index(build_spm_index(figure1, [zoe])[0], tmp_path / "spm")
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_interrupted_save_leaves_no_manifest(self, figure1, tmp_path):
        """A fault mid-save never yields a manifest pointing at missing
        data: the manifest is written last, so the directory just looks
        like no index was ever saved there."""
        from repro import faultinject
        from repro.exceptions import TransientFaultError

        target = tmp_path / "broken"
        rule = faultinject.FaultRule(point="io", after_calls=1, times=1)
        with faultinject.inject(rule):
            with pytest.raises(TransientFaultError):
                save_index(build_pm_index(figure1), target)
        assert not (target / "manifest.json").exists()
        with pytest.raises(ExecutionError, match="manifest"):
            load_index(target)
        assert list(target.rglob("*.tmp")) == []

    def test_failed_resave_preserves_previous_index(self, figure1, tmp_path):
        """Overwriting an index atomically: if the second save dies before
        its manifest lands, the first index still loads intact."""
        from repro import faultinject
        from repro.exceptions import TransientFaultError

        target = tmp_path / "idx"
        index = build_pm_index(figure1)
        save_index(index, target)
        rule = faultinject.FaultRule(point="io", after_calls=1, times=1)
        with faultinject.inject(rule):
            with pytest.raises(TransientFaultError):
                save_index(index, target)
        restored = load_index(target)
        assert _indexes_equal(index, restored)
