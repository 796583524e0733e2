"""The array store behind ``storage="mmap"``.

Covers the store contract (put/get/appender/commit), the crash-safety
discipline (manifest last; an uncommitted directory is invisible), the
zero-copy CSR adapters, and the network-level storage switch.
"""

from __future__ import annotations

import gc
import json
import os

import numpy as np
import pytest
from scipy import sparse

from repro.datagen.fixtures import figure1_network
from repro.exceptions import ExecutionError, NetworkError
from repro.hin.io import load_json, network_from_dict, network_to_dict, save_json
from repro.hin.network import HeterogeneousInformationNetwork
from repro.hin.schema import bibliographic_schema
from repro.hin.storage import (
    STORAGE_MODES,
    MmapArrayStore,
    csr_from_buffers,
    is_store_backed,
    spill_csr,
)


@pytest.fixture(params=["mmap"])
def store(request, tmp_path):
    return MmapArrayStore(str(tmp_path / "store"))


class TestArrayStoreContract:
    def test_put_get_roundtrip(self, store):
        expected = np.arange(17, dtype=np.float64)
        store.put("a:data", expected)
        np.testing.assert_array_equal(np.asarray(store.get("a:data")), expected)

    def test_appender_matches_put(self, store):
        chunks = [np.arange(5, dtype=np.int64), np.arange(5, 11, dtype=np.int64)]
        appender = store.appender("chunks", np.dtype(np.int64))
        for chunk in chunks:
            appender.append(chunk)
        appender.finalize()
        np.testing.assert_array_equal(
            np.asarray(store.get("chunks")), np.concatenate(chunks)
        )

    def test_zero_size_arrays(self, store):
        store.put("empty", np.empty(0, dtype=np.float64))
        got = store.get("empty")
        assert got.size == 0 and got.dtype == np.float64

    def test_reput_replaces(self, store):
        store.put("k", np.ones(3))
        old = store.get("k")
        store.put("k", np.zeros(5))
        np.testing.assert_array_equal(np.asarray(store.get("k")), np.zeros(5))
        # A view taken before the re-put keeps reading the old contents.
        np.testing.assert_array_equal(np.asarray(old), np.ones(3))


class TestMmapStorePersistence:
    def test_commit_then_open(self, tmp_path):
        directory = str(tmp_path / "s")
        store = MmapArrayStore(directory)
        store.put("x:data", np.arange(9, dtype=np.float64))
        store.commit({"note": {"hello": 1}})
        reopened = MmapArrayStore.open(directory)
        assert isinstance(reopened.get("x:data"), np.memmap)
        np.testing.assert_array_equal(
            np.asarray(reopened.get("x:data")), np.arange(9, dtype=np.float64)
        )
        assert reopened.extra["note"] == {"hello": 1}

    def test_open_without_manifest_raises(self, tmp_path):
        directory = str(tmp_path / "s")
        store = MmapArrayStore(directory)
        store.put("x", np.ones(4))  # data written, never committed
        with pytest.raises(ExecutionError, match="never published|interrupted"):
            MmapArrayStore.open(directory)

    def test_open_corrupt_manifest_raises(self, tmp_path):
        directory = tmp_path / "s"
        store = MmapArrayStore(str(directory))
        store.put("x", np.ones(4))
        store.commit()
        (directory / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ExecutionError):
            MmapArrayStore.open(str(directory))

    def test_open_truncated_data_raises(self, tmp_path):
        directory = tmp_path / "s"
        store = MmapArrayStore(str(directory))
        store.put("x", np.ones(64))
        store.commit()
        manifest = json.loads((directory / "manifest.json").read_text())
        data_file = directory / manifest["arrays"]["x"]["file"]
        data_file.write_bytes(data_file.read_bytes()[:-16])
        with pytest.raises(ExecutionError):
            MmapArrayStore.open(str(directory))

    def test_temporary_directory_mode(self):
        store = MmapArrayStore()
        store.put("k", np.arange(3, dtype=np.int64))
        path = store.get("k").filename
        assert os.path.exists(path)

    def test_open_detects_same_size_tampering(self, tmp_path):
        directory = tmp_path / "s"
        store = MmapArrayStore(str(directory))
        store.put("x", np.arange(64, dtype=np.float64))
        store.commit()
        manifest = json.loads((directory / "manifest.json").read_text())
        data_file = directory / manifest["arrays"]["x"]["file"]
        payload = bytearray(data_file.read_bytes())
        payload[:4] = b"\xff\xff\xff\xff"
        data_file.write_bytes(bytes(payload))
        with pytest.raises(ExecutionError, match="fingerprint"):
            MmapArrayStore.open(str(directory))

    @pytest.mark.parametrize("escape", ["relative", "absolute"])
    def test_open_refuses_file_names_outside_the_directory(self, tmp_path, escape):
        # A file outside the store that would pass every size check.
        outside = tmp_path / "outside.bin"
        outside.write_bytes(np.ones(4).tobytes())
        directory = tmp_path / "s"
        store = MmapArrayStore(str(directory))
        store.put("x", np.ones(4))
        store.commit()
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["arrays"]["x"]["file"] = (
            "../outside.bin" if escape == "relative" else str(outside)
        )
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ExecutionError, match="not a bare file name"):
            MmapArrayStore.open(str(directory))

    def test_uncommitted_files_leave_with_the_store(self, tmp_path):
        directory = tmp_path / "s"
        store = MmapArrayStore(str(directory))
        store.put("x", np.ones(4))
        store.commit()
        published = set(os.listdir(directory))
        store.put("y", np.ones(2))  # written, never committed
        del store
        gc.collect()
        assert set(os.listdir(directory)) == published

    def test_reput_of_a_published_array_waits_for_the_commit(self, tmp_path):
        directory = tmp_path / "s"
        store = MmapArrayStore(str(directory))
        store.put("x", np.ones(4))
        store.commit()
        reopened = MmapArrayStore.open(str(directory))
        reopened.put("x", np.zeros(4))
        # Until the next commit the published manifest still loads.
        np.testing.assert_array_equal(
            np.asarray(MmapArrayStore.open(str(directory)).get("x")), np.ones(4)
        )
        reopened.commit()
        np.testing.assert_array_equal(
            np.asarray(MmapArrayStore.open(str(directory)).get("x")), np.zeros(4)
        )
        assert len(list(directory.glob("*.bin"))) == 1


class TestCsrAdapters:
    def test_spill_and_rebuild(self, tmp_path):
        store = MmapArrayStore(str(tmp_path / "s"))
        matrix = sparse.random(30, 20, density=0.2, format="csr", random_state=5)
        spilled = spill_csr(store, "m", matrix)
        assert is_store_backed(spilled)
        assert (spilled != matrix.tocsr()).nnz == 0
        # Canonical flags set: scipy must never try to sort the read-only
        # buffers in place.
        assert spilled.has_sorted_indices and spilled.has_canonical_format

    def test_csr_from_buffers_zero_copy(self):
        matrix = sparse.random(8, 8, density=0.3, format="csr", random_state=2)
        matrix.sum_duplicates()
        matrix.sort_indices()
        adopted = csr_from_buffers(
            matrix.data, matrix.indices, matrix.indptr, matrix.shape
        )
        assert adopted.data is matrix.data
        assert (adopted != matrix).nnz == 0

    def test_is_store_backed_on_ram(self):
        matrix = sparse.random(5, 5, density=0.5, format="csr")
        assert not is_store_backed(matrix)


class TestNetworkStorageTier:
    def test_storage_modes_constant(self):
        assert STORAGE_MODES == ("ram", "mmap")

    def test_invalid_storage_rejected(self):
        with pytest.raises(NetworkError, match="storage"):
            HeterogeneousInformationNetwork(
                bibliographic_schema(), storage="tape"
            )

    def test_copy_with_storage_roundtrip(self, tmp_path):
        network = figure1_network()
        mmap_net = network.copy_with_storage("mmap", str(tmp_path / "net"))
        assert mmap_net.storage == "mmap"
        for edge_type in network.schema.edge_types:
            ram = network.adjacency(edge_type.source, edge_type.target)
            mm = mmap_net.adjacency(edge_type.source, edge_type.target)
            assert is_store_backed(mm)
            assert (ram != mm).nnz == 0
        assert mmap_net.vertex_names("author") == network.vertex_names("author")

    def test_load_json_storage_passthrough(self, tmp_path):
        network = figure1_network()
        path = tmp_path / "net.json"
        save_json(network, path)
        loaded = load_json(path, storage="mmap", storage_dir=str(tmp_path / "s"))
        assert loaded.storage == "mmap"
        for edge_type in network.schema.edge_types:
            assert is_store_backed(
                loaded.adjacency(edge_type.source, edge_type.target)
            )
            assert (
                network.adjacency(edge_type.source, edge_type.target)
                != loaded.adjacency(edge_type.source, edge_type.target)
            ).nnz == 0

    def test_network_from_dict_storage(self):
        data = network_to_dict(figure1_network())
        loaded = network_from_dict(data, storage="mmap")
        assert loaded.storage == "mmap"
