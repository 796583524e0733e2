"""Worker segments: the process backend's one transport, on both tiers.

Every worker-segment generation is a committed
:class:`~repro.hin.storage.MmapArrayStore` directory named
``repro-serve-<owner pid>-<random>``: under ``/dev/shm`` on the RAM tier (a
tmpfs, so the store is shared memory), under ``storage_dir`` on the mmap
tier.  Workers open it read-only.  These tests pin the contract: identical
views, tamper detection, the parent-directory rule, cleanup after a failed
export and after a SIGKILLed owner, and the process backend running end to
end on the mmap tier.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro import faultinject
from repro.exceptions import ExecutionError, TransientFaultError
from repro.hin.storage import MmapArrayStore
from repro.service import QueryService, ServiceConfig, backends
from repro.service.backends import ProcessBackend, export_segment, segment_parent
from tests.service.test_process_backend import QUERY_GRID, _wire


def _arrays():
    return {
        "a:data": np.arange(11, dtype=np.float64),
        "a:indices": np.arange(11, dtype=np.int32),
        "empty": np.empty(0, dtype=np.float64),
    }


def _export_and_die(directory: str) -> None:
    """Child body: export a segment, then die without releasing it."""
    export_segment(_arrays(), directory)
    os.kill(os.getpid(), signal.SIGKILL)


class TestFileBackedSegments:
    def test_export_attach_roundtrip(self, tmp_path):
        segment = export_segment(_arrays(), tmp_path)
        try:
            root = Path(segment.directory)
            assert root.parent == tmp_path
            assert root.name.startswith(f"repro-serve-{os.getpid()}-")
            views = MmapArrayStore.open(segment.directory).arrays()
            np.testing.assert_array_equal(views["a:data"], _arrays()["a:data"])
            assert views["empty"].size == 0
            with pytest.raises((ValueError, TypeError)):
                views["a:data"][0] = 99.0  # read-only mapping
            del views
        finally:
            segment.release()
        assert not os.path.exists(segment.directory)

    def test_attach_missing_file_raises(self, tmp_path):
        segment = export_segment(_arrays(), tmp_path)
        segment.release()
        with pytest.raises(ExecutionError, match="never published"):
            MmapArrayStore.open(segment.directory)

    def test_tamper_detection(self, tmp_path):
        segment = export_segment(_arrays(), tmp_path)
        try:
            root = Path(segment.directory)
            entry = json.loads((root / "manifest.json").read_text())["arrays"]
            with open(root / entry["a:data"]["file"], "r+b") as handle:
                handle.seek(0)
                handle.write(b"\xff\xff\xff\xff")
            with pytest.raises(ExecutionError, match="fingerprint"):
                MmapArrayStore.open(segment.directory)
        finally:
            segment.release()

    def test_dead_owner_segment_is_reclaimed_by_next_export(self, tmp_path):
        """A SIGKILLed owner never runs ``release()``; the next export into
        the same directory removes its segment and keeps live owners' and
        entries whose name carries no usable pid."""
        live = export_segment(_arrays(), tmp_path)
        foreign = {"repro-serve-notapid-x", "repro-serve-99999999999999-x"}
        for name in foreign:
            (tmp_path / name).mkdir()
        child = multiprocessing.get_context("spawn").Process(
            target=_export_and_die, args=(str(tmp_path),)
        )
        child.start()
        child.join(timeout=60.0)
        assert child.exitcode == -signal.SIGKILL
        orphans = [p.name for p in tmp_path.glob(f"repro-serve-{child.pid}-*")]
        assert len(orphans) == 1

        segment = export_segment(_arrays(), tmp_path)
        try:
            assert {p.name for p in tmp_path.iterdir()} == foreign | {
                Path(s.directory).name for s in (live, segment)
            }
        finally:
            segment.release()
            live.release()
        assert {p.name for p in tmp_path.iterdir()} == foreign


class TestFailedExport:
    @pytest.mark.parametrize("storage", ["ram", "mmap"])
    def test_failed_export_leaves_nothing(
        self, figure1, tmp_path, monkeypatch, storage
    ):
        """An ``io`` fault on the third array write of the export raises its
        typed error before any worker spawns, and leaves no segment."""
        network = figure1 if storage == "ram" else figure1.copy_with_storage("mmap")

        def config(backend, name):
            return ServiceConfig(
                backend=backend,
                workers=2,
                storage=storage,
                storage_dir=str(tmp_path / name),
            )

        # io calls before the backend exists (the mmap tier's pm build).
        with faultinject.inject(
            faultinject.FaultRule(point="io", probability=0.0)
        ) as probe:
            QueryService.from_network(network, config("thread", "probe")).close()
        before_export = probe.calls.get("io", 0)

        spawned = []

        def spawn(self, slot):
            spawned.append(slot.worker_id)
            raise AssertionError("a worker spawned despite the failed export")

        monkeypatch.setattr(ProcessBackend, "_spawn", spawn)
        parent = Path(segment_parent(storage, str(tmp_path / "store")))
        own = f"repro-serve-{os.getpid()}-*"
        before = set(parent.glob(own))
        rule = faultinject.FaultRule(
            point="io", after_calls=before_export + 2, times=1
        )
        with faultinject.inject(rule) as injector:
            with pytest.raises(TransientFaultError):
                QueryService.from_network(network, config("process", "store"))
        assert injector.fired["io"] == 1
        assert spawned == []
        assert set(parent.glob(own)) == before


class TestProcessBackendOnMmapTier:
    def test_answers_respawn_and_cleanup(self, figure1, tmp_path):
        """``backend="process"`` on ``storage="mmap"``: answers byte-identical
        to thread/RAM, a SIGKILLed worker respawns onto the same store, and
        ``close()`` leaves no worker store behind."""
        storage_dir = tmp_path / "store"
        reference_config = ServiceConfig(
            workers=2, backend="thread", cache_max_entries=0
        )
        with QueryService.from_network(figure1, reference_config) as reference:
            expected = _wire(reference.execute_many(QUERY_GRID, timeout=60.0))

        config = ServiceConfig(
            backend="process",
            storage="mmap",
            storage_dir=str(storage_dir),
            workers=2,
            cache_max_entries=0,
        )
        service = QueryService.from_network(figure1.copy_with_storage("mmap"), config)
        try:
            segment = service.stats()["backend"]["segment"]
            assert Path(segment).parent == storage_dir
            assert MmapArrayStore.open(segment).keys()  # committed, fingerprinted
            assert _wire(service.execute_many(QUERY_GRID, timeout=60.0)) == expected

            os.kill(service.stats()["backend"]["per_worker"][0]["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while True:
                rows = service.stats()["backend"]["per_worker"]
                if rows[0]["restarts"] >= 1 and all(
                    row["alive"] and row["ready"] for row in rows
                ):
                    break
                assert time.monotonic() < deadline, "worker never respawned"
                time.sleep(0.02)
            assert service.stats()["backend"]["segment"] == segment
            assert _wire(service.execute_many(QUERY_GRID, timeout=60.0)) == expected
        finally:
            service.close()
        assert os.listdir(storage_dir) == ["pm-index"]


class TestServiceConfigStorage:
    def test_segment_parent_derivation(self, tmp_path, monkeypatch):
        """RAM tier: ``/dev/shm``, else the temp dir; mmap tier:
        ``storage_dir``, else the temp dir.  Nothing is configured."""
        shm = "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()
        assert segment_parent() == segment_parent("ram", str(tmp_path)) == shm
        assert segment_parent("mmap", str(tmp_path)) == str(tmp_path)
        assert segment_parent("mmap") == tempfile.gettempdir()
        monkeypatch.setattr(backends, "_SHM_DIR", str(tmp_path / "missing"))
        assert segment_parent() == tempfile.gettempdir()

    def test_invalid_storage_rejected(self):
        from repro.exceptions import ServiceError
        from repro.service.config import ServiceConfig

        with pytest.raises(ServiceError):
            ServiceConfig(storage="tape")
        with pytest.raises(ServiceError):
            ServiceConfig(max_build_memory_mb=-1.0)
