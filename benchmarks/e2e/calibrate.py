"""Calibrated time: a frozen kernel that turns wall-clock into reference-machine ms.

This box's speed drifts by tens of percent between adjacent runs of the
same code (process CPU time drifts with it), so raw wall-clock cannot
resolve a 10 % regression.  Every timing metric of the benchmark is
therefore *calibrated*: a fixed kernel of known reference cost
(:data:`CAL_REF_MS`) is run between chunks of requests, and the CPU part
of each measurement is rescaled by how fast the kernel ran at that moment.
Idle waits (socket timers) are not CPU work and stay in real milliseconds.

The kernel, its inputs and :data:`CAL_REF_MS` are frozen: changing any of
them rescales every number in the ledger.  This module imports nothing
from ``repro`` so that no change to the program can move the yardstick.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
from scipy import sparse

__all__ = ["CAL_REF_MS", "CalibrationKernel", "calibrated"]

#: Reference cost of one kernel run, in milliseconds.  A measurement's CPU
#: time is scaled by ``CAL_REF_MS / (kernel time observed next to it)``.
CAL_REF_MS = 2.0


class CalibrationKernel:
    """The frozen ~2 ms yardstick: half pure Python, half ``scipy.sparse``.

    The two halves mirror what a request costs in this system: interpreter
    work over small containers and strings plus JSON encoding, and sparse
    products plus the per-object overhead of building small CSR matrices.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20150323)
        self._tokens = [f"tok{value}" for value in rng.integers(0, 400, size=1600)]
        self._rows = [
            {"type": "author", "index": int(i), "score": float(i) * 0.37, "name": f"v{i}"}
            for i in range(300)
        ]
        self._left = sparse.random(400, 400, density=0.02, format="csr", random_state=7)
        self._right = sparse.random(400, 400, density=0.02, format="csr", random_state=11)
        self._row_data = np.arange(1.0, 9.0)
        self._row_indices = np.arange(0, 80, 10, dtype=np.int64)
        self._row_indptr = np.array([0, 8], dtype=np.int64)

    def _work(self) -> int:
        counts: dict[str, int] = {}
        pairs = []
        for position, token in enumerate(self._tokens):
            counts[token] = counts.get(token, 0) + 1
            if position % 8 == 0:
                pairs.append((token.upper(), position))
        text = json.dumps(self._rows)
        product = self._left @ self._right
        rows = [
            sparse.csr_matrix(
                (self._row_data, self._row_indices, self._row_indptr), shape=(1, 400)
            )
            for _ in range(60)
        ]
        return len(counts) + len(pairs) + len(text) + product.nnz + len(rows)

    def run_ms(self) -> float:
        """Run the kernel once; its wall time in milliseconds."""
        started = time.perf_counter()
        self._work()
        return (time.perf_counter() - started) * 1e3

    def median_ms(self, runs: int) -> float:
        """Median of ``runs`` consecutive kernel runs (set-up calibration)."""
        return statistics.median(self.run_ms() for _ in range(runs))


def calibrated(wall: float, cpu: float, cal_ms: float) -> float:
    """Rescale the CPU share of ``wall`` to the reference machine speed.

    ``wall`` and ``cpu`` share a unit (the result has it too); ``cpu`` is
    the process CPU time spent inside the wall interval, clamped to it
    (two busy threads on two cores can exceed it).  ``cal_ms`` is the
    kernel time observed next to the measurement.  A pure sleep comes back
    unchanged; pure CPU work under a kernel twice as slow as the reference
    is halved.
    """
    cpu = min(max(cpu, 0.0), wall)
    return (wall - cpu) + cpu * CAL_REF_MS / cal_ms
