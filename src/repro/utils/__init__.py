"""Shared utilities: deterministic RNG plumbing, timers, sparse helpers."""

from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.timers import PhaseTimer
from repro.utils.sparsetools import (
    csr_row_nnz,
    csr_storage_bytes,
    row_vector,
    sparse_row_bytes,
)
from repro.utils.validation import (
    require,
    require_positive,
    require_probability,
    require_type,
)

__all__ = [
    "ensure_rng",
    "spawn_rng",
    "PhaseTimer",
    "csr_row_nnz",
    "csr_storage_bytes",
    "row_vector",
    "sparse_row_bytes",
    "require",
    "require_positive",
    "require_probability",
    "require_type",
]
