"""File-backed worker segments: the mmap-tier alternative to /dev/shm.

POSIX shared memory lives in a tmpfs whose budget (typically half of RAM)
is exactly what the large-graph tier is trying to escape; with
``backing="file"`` the process backend commits each segment generation as
an :class:`~repro.hin.storage.MmapArrayStore` directory, which workers open
read-only.  These tests pin the contract: identical views, picklable
manifests, tamper detection, cleanup, and the process backend running end
to end on the mmap tier.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ExecutionError, ServiceError
from repro.hin.storage import MmapArrayStore
from repro.service import QueryService, ServiceConfig, shm
from repro.service.backends import attach_segment, export_segment
from tests.service.test_process_backend import QUERY_GRID, _wire


def _arrays():
    return {
        "a:data": np.arange(11, dtype=np.float64),
        "a:indices": np.arange(11, dtype=np.int32),
        "empty": np.empty(0, dtype=np.float64),
    }


class TestFileBackedSegments:
    def test_export_attach_roundtrip(self, tmp_path):
        segment = export_segment(_arrays(), "file", str(tmp_path))
        try:
            assert Path(segment.manifest).parent == tmp_path
            # The manifest travels by pickle (spawn-context worker args).
            manifest = pickle.loads(pickle.dumps(segment.manifest))
            attached, views = attach_segment(manifest)
            np.testing.assert_array_equal(views["a:data"], _arrays()["a:data"])
            assert views["empty"].size == 0
            with pytest.raises((ValueError, TypeError)):
                views["a:data"][0] = 99.0  # read-only mapping
            del views
            attached.close()
        finally:
            segment.release()
        assert not os.path.exists(segment.manifest)

    def test_attach_missing_file_raises(self, tmp_path):
        segment = export_segment(_arrays(), "file", str(tmp_path))
        segment.release()
        with pytest.raises(ExecutionError, match="never published"):
            attach_segment(segment.manifest)

    def test_tamper_detection(self, tmp_path):
        segment = export_segment(_arrays(), "file", str(tmp_path))
        try:
            root = Path(segment.manifest)
            entry = json.loads((root / "manifest.json").read_text())["arrays"]
            with open(root / entry["a:data"]["file"], "r+b") as handle:
                handle.seek(0)
                handle.write(b"\xff\xff\xff\xff")
            with pytest.raises(ExecutionError, match="fingerprint"):
                attach_segment(segment.manifest)
        finally:
            segment.release()

    def test_invalid_backing_rejected(self):
        with pytest.raises(ServiceError, match="backing"):
            export_segment(_arrays(), "carrier-pigeon")

    def test_legacy_manifest_defaults_to_shm(self):
        """The default ``/dev/shm`` backing goes through the same two calls."""
        segment = export_segment(_arrays(), "shm")
        try:
            assert segment.name in shm.active_segments()
            attached, views = attach_segment(segment.manifest)
            np.testing.assert_array_equal(views["a:data"], _arrays()["a:data"])
            del views
            attached.close()
        finally:
            segment.release()
        assert segment.name not in shm.active_segments()


class TestProcessBackendOnMmapTier:
    def test_answers_respawn_and_cleanup(self, figure1, tmp_path):
        """``backend="process"`` on ``storage="mmap"``: answers byte-identical
        to thread/RAM, a SIGKILLed worker respawns onto the same store, and
        ``close()`` leaves neither a worker store nor a shm segment."""
        storage_dir = tmp_path / "store"
        before = shm.active_segments()
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
        assert shm.active_segments() == before


class TestServiceConfigStorage:
    def test_segment_backing_derivation(self):
        from repro.service.config import ServiceConfig

        assert ServiceConfig().segment_backing == "shm"
        assert ServiceConfig(storage="mmap").segment_backing == "file"

    def test_invalid_storage_rejected(self):
        from repro.exceptions import ServiceError
        from repro.service.config import ServiceConfig

        with pytest.raises(ServiceError):
            ServiceConfig(storage="tape")
        with pytest.raises(ServiceError):
            ServiceConfig(index_build_block_rows=0)
        with pytest.raises(ServiceError):
            ServiceConfig(max_build_memory_mb=-1.0)
