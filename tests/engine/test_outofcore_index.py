"""Blocked and store-backed PM/SPM index builds: parity, crash safety, limits.

Block size and storage tier must be *invisible* semantically: byte-identical
index contents versus the whole-product PM build and the definition of the
SPM rows, whatever the block size, storage tier, or interruption point.  Crash safety leans on the
array store's write-data-then-manifest discipline — an interrupted build
leaves a directory :func:`~repro.engine.index_io.load_index` refuses
with a typed error, never a partial index.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import faultinject
from repro.datagen.synthetic import (
    StreamingCorpusConfig,
    streaming_bibliographic_network,
)
from repro.engine.deadline import Deadline, deadline_scope
from repro.engine.index import build_pm_index, build_spm_index
from repro.engine.index_io import load_index, save_index
from repro.exceptions import (
    DeadlineExceededError,
    ExecutionError,
    TransientFaultError,
)
from repro.hin.network import VertexId
from repro.hin.storage import MmapArrayStore, csr_from_buffers
from repro.metapath.materialize import materialize
from repro.metapath.metapath import MetaPath
from repro.utils.sparsetools import sparse_row_bytes

CONFIG = StreamingCorpusConfig(
    num_papers=400,
    num_authors=150,
    num_venues=12,
    num_terms=90,
    chunk_papers=170,
)


@pytest.fixture(scope="module")
def network():
    return streaming_bibliographic_network(CONFIG, seed=11)


def _bytes_of(matrix):
    csr = matrix.tocsr().copy()
    csr.sum_duplicates()
    csr.sort_indices()
    return (
        csr.data.tobytes(),
        csr.indices.astype(np.int64).tobytes(),
        csr.indptr.astype(np.int64).tobytes(),
        csr.shape,
    )


def _index_bytes(index):
    """Everything ``index`` stores, keyed by path — and by vertex for partial
    paths, so the comparison does not depend on the stacking order."""
    manifest, arrays = index.export_arrays()
    payload = {}
    for entry in manifest["entries"]:
        prefix = entry["prefix"]
        matrix = csr_from_buffers(
            arrays[f"{prefix}:data"],
            arrays[f"{prefix}:indices"],
            arrays[f"{prefix}:indptr"],
            entry["shape"],
        )
        if entry["kind"] == "full":
            payload[tuple(entry["types"])] = _bytes_of(matrix)
        else:
            payload[tuple(entry["types"])] = {
                int(vertex): _bytes_of(matrix[[slot], :])
                for slot, vertex in enumerate(arrays[f"{prefix}:vertices"])
            }
    return payload


def _assert_same_index(left, right):
    assert _index_bytes(left) == _index_bytes(right)


def _definition_spm(network, ranked, max_bytes):
    """SPM contents straight from the definition: rows of the full length-2
    products, vertices admitted hottest-first, all-or-nothing, until the
    first one that does not fit."""
    products = {
        types: materialize(network, MetaPath(types)).tocsr()
        for types in network.schema.length2_metapaths()
    }
    admitted, payload, total = [], {}, 0
    for vertex in ranked:
        rows = {
            types: product[[vertex.index], :]
            for types, product in products.items()
            if types[0] == vertex.type
        }
        cost = sum(sparse_row_bytes(row.nnz) for row in rows.values())
        if max_bytes is not None and total + cost > max_bytes:
            break
        total += cost
        admitted.append(vertex)
        for types, row in rows.items():
            payload.setdefault(types, {})[vertex.index] = _bytes_of(row)
    return payload, admitted


class TestBlockedPmParity:
    @pytest.mark.parametrize("block_rows", [1, 7, 64, 100_000])
    def test_blocked_matches_incore(self, network, block_rows):
        incore = build_pm_index(network)
        blocked = build_pm_index(network, block_rows=block_rows)
        _assert_same_index(incore, blocked)

    def test_blocked_to_mmap_store_roundtrips(self, network, tmp_path):
        incore = build_pm_index(network)
        store_dir = str(tmp_path / "pm")
        build_pm_index(
            network, block_rows=37, store=MmapArrayStore(store_dir)
        )
        reloaded = load_index(store_dir)
        _assert_same_index(incore, reloaded)
        # The reload serves file-backed views, not copies.
        some_path = next(iter(reloaded.paths))
        assert isinstance(reloaded.full_matrix(some_path).data, np.memmap)
        # save_index writes the same layout; the one loader reads both.
        save_index(incore, tmp_path / "saved")
        _assert_same_index(incore, load_index(tmp_path / "saved"))

    def test_invalid_block_rows_rejected(self, network):
        with pytest.raises(ExecutionError):
            build_pm_index(network, block_rows=0)
        with pytest.raises(ExecutionError):
            build_spm_index(network, [], block_rows=0)

    def test_memory_budget_shrinks_blocks(self, network, tmp_path):
        # A tiny budget must still complete — it clamps the block size down
        # to one row, never to zero — and stay byte-identical.
        incore = build_pm_index(network)
        squeezed = build_pm_index(
            network, block_rows=100_000, max_build_memory_mb=0.001
        )
        _assert_same_index(incore, squeezed)


class TestBlockedSpmParity:
    @pytest.mark.parametrize("budget", [None, 8_000])
    @pytest.mark.parametrize("block_rows", [1, 4, 100_000])
    def test_any_block_size_matches_definition(
        self, network, budget, block_rows, tmp_path
    ):
        ranked = [VertexId("author", i) for i in range(25)] + [
            VertexId("venue", 0)
        ]
        expected, expected_admitted = _definition_spm(network, ranked, budget)
        in_ram, admitted = build_spm_index(
            network, ranked, max_bytes=budget, block_rows=block_rows
        )
        in_store, admitted_store = build_spm_index(
            network,
            ranked,
            max_bytes=budget,
            block_rows=block_rows,
            store=MmapArrayStore(str(tmp_path / "spm")),
        )
        assert admitted == admitted_store == expected_admitted
        assert 0 < len(admitted) and (budget is None or len(admitted) < len(ranked))
        assert _index_bytes(in_ram) == _index_bytes(in_store) == expected

    def test_spm_store_roundtrips(self, network, tmp_path):
        ranked = [VertexId("author", i) for i in range(10)]
        store_dir = str(tmp_path / "spm")
        built, admitted = build_spm_index(
            network, ranked, store=MmapArrayStore(store_dir)
        )
        reloaded = load_index(store_dir)
        _assert_same_index(built, reloaded)
        assert admitted == ranked


class TestCrashSafety:
    """An interrupted build must be invisible through the atomic load path."""

    def _assert_invisible(self, store_dir):
        assert not os.path.exists(os.path.join(store_dir, "manifest.json"))
        with pytest.raises(ExecutionError, match="never published|interrupted"):
            MmapArrayStore.open(store_dir)
        with pytest.raises(ExecutionError):
            load_index(store_dir)

    @pytest.mark.parametrize("after_calls", [1, 5, 11])
    def test_midblock_fault_leaves_no_index(self, network, tmp_path, after_calls):
        store_dir = str(tmp_path / "pm")
        with faultinject.inject(
            faultinject.FaultRule(
                point="index_build", times=1, after_calls=after_calls
            )
        ):
            with pytest.raises(TransientFaultError):
                build_pm_index(
                    network, block_rows=50, store=MmapArrayStore(store_dir)
                )
        self._assert_invisible(store_dir)

    def test_commit_io_fault_leaves_no_index(self, network, tmp_path):
        # Every write before the manifest may have succeeded; failing the
        # manifest publish itself must still leave nothing visible.
        store_dir = str(tmp_path / "pm")
        # First count how many io checks a clean build performs, then fail
        # exactly the last one (the manifest write).
        probe_dir = str(tmp_path / "probe")
        with faultinject.inject(
            faultinject.FaultRule(point="io", probability=0.0)
        ) as injector:
            build_pm_index(
                network, block_rows=50, store=MmapArrayStore(probe_dir)
            )
            io_calls = injector.calls["io"]
        assert io_calls >= 1

        with faultinject.inject(
            faultinject.FaultRule(
                point="io", times=1, after_calls=io_calls - 1
            )
        ):
            with pytest.raises(TransientFaultError):
                build_pm_index(
                    network, block_rows=50, store=MmapArrayStore(store_dir)
                )
        self._assert_invisible(store_dir)

    def test_spm_midblock_fault_leaves_no_index(self, network, tmp_path):
        store_dir = str(tmp_path / "spm")
        ranked = [VertexId("author", i) for i in range(20)]
        with faultinject.inject(
            faultinject.FaultRule(point="index_build", times=1, after_calls=2)
        ):
            with pytest.raises(TransientFaultError):
                build_spm_index(
                    network,
                    ranked,
                    block_rows=3,
                    store=MmapArrayStore(store_dir),
                )
        self._assert_invisible(store_dir)

    def test_interrupted_then_retried_build_succeeds(self, network, tmp_path):
        store_dir = str(tmp_path / "pm")
        with faultinject.inject(
            faultinject.FaultRule(point="index_build", times=1, after_calls=3)
        ):
            with pytest.raises(TransientFaultError):
                build_pm_index(
                    network, block_rows=50, store=MmapArrayStore(store_dir)
                )
        # Retrying into the same directory publishes a complete index.
        build_pm_index(
            network, block_rows=50, store=MmapArrayStore(store_dir)
        )
        _assert_same_index(build_pm_index(network), load_index(store_dir))

    @pytest.mark.parametrize("after_calls", [1, 3, 6])
    def test_interrupted_rebuild_keeps_the_published_index(
        self, figure1, tmp_path, after_calls
    ):
        """A rebuild into a directory that already holds a published index
        must not write over the files that index's manifest references."""
        store_dir = str(tmp_path / "pm")
        published = build_pm_index(
            figure1, block_rows=1, store=MmapArrayStore(store_dir)
        )
        with faultinject.inject(
            faultinject.FaultRule(
                point="index_build", times=1, after_calls=after_calls
            )
        ):
            with pytest.raises(TransientFaultError):
                build_pm_index(
                    figure1, block_rows=1, store=MmapArrayStore(store_dir)
                )
        _assert_same_index(published, load_index(store_dir))

    def test_republish_retires_the_superseded_files(self, figure1, tmp_path):
        store_dir = tmp_path / "pm"
        build_pm_index(figure1, block_rows=1, store=MmapArrayStore(store_dir))
        first = set(os.listdir(store_dir))
        build_pm_index(figure1, block_rows=1, store=MmapArrayStore(store_dir))
        manifest = json.loads((store_dir / "manifest.json").read_text())
        referenced = {entry["file"] for entry in manifest["arrays"].values()}
        assert set(os.listdir(store_dir)) == referenced | {"manifest.json"}
        assert not referenced & first  # the rebuild wrote fresh files
        _assert_same_index(build_pm_index(figure1), load_index(store_dir))


class TestDeadline:
    def test_blocked_build_honors_ambient_deadline(self, network, tmp_path):
        store_dir = str(tmp_path / "pm")
        with deadline_scope(Deadline(0.0)):
            with pytest.raises(DeadlineExceededError):
                build_pm_index(
                    network, block_rows=10, store=MmapArrayStore(store_dir)
                )
        assert not os.path.exists(os.path.join(store_dir, "manifest.json"))
