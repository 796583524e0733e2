"""Tuning knobs for the concurrent query service, each declared once.

One :class:`ServiceConfig` describes a ``repro serve`` deployment (execution
backend, worker count, admission queue, time budget, caches, storage tier).

Every field is a :func:`setting`: its default, its bound, its ``--flag``
spelling (when the CLI exposes it) and its one description live in the
field's metadata.  Validation (:func:`_check`), the CLI flags
(:func:`add_settings`), the way back from parsed flags to a config
(:func:`settings_from_args`) and the tables in ``docs/service.md`` all read
those declarations, so a setting is never written down twice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from repro.exceptions import ServiceError

__all__ = [
    "ServiceConfig",
    "add_settings",
    "auto_worker_count",
    "settings_from_args",
]

_FLAG_TYPES = {"int": int, "float": float, "str": str}


@dataclass(frozen=True)
class _Declared:
    """What a config field says about itself beyond its type and default.

    ``at_least`` (inclusive), ``positive`` and ``choices`` state the bound
    (``None`` is admitted where the annotation says so).  ``flag`` exposes
    the field on the CLI under that spelling (``metavar`` names its value in
    ``--help``).
    """

    help: str
    flag: str | None = None
    metavar: str | None = None
    at_least: float | None = None
    positive: bool = False
    choices: tuple | None = None


def setting(default, help, **declared):  # noqa: A002 - argparse's word for it
    """A config field carrying its whole declaration (see :class:`_Declared`)."""
    return field(default=default, metadata={"declared": _Declared(help, **declared)})


def _check(config) -> None:
    """Hold every field of ``config`` to its declared bound."""
    for spec in fields(config):
        declared, value = spec.metadata["declared"], getattr(config, spec.name)
        if value is None:
            if spec.type.endswith("None"):
                continue
            raise ServiceError(f"{spec.name} must not be None")
        low = declared.at_least
        if declared.choices is not None:
            holds, bound = value in declared.choices, f"one of {declared.choices}"
        elif declared.positive:
            holds, bound = value > 0, "positive"
        elif low is not None:
            holds, bound = value >= low, f">= {low}"
        else:
            continue
        if not holds:
            raise ServiceError(f"{spec.name} must be {bound}, got {value!r}")


def _flagged(config_class):
    """``(field, its declaration, argparse dest)`` per setting the CLI exposes."""
    for spec in fields(config_class):
        declared = spec.metadata["declared"]
        if declared.flag:
            yield spec, declared, declared.flag.lstrip("-").replace("-", "_")


def add_settings(parser, config_class) -> None:
    """Add one ``--flag`` per exposed setting of ``config_class``."""
    for spec, declared, dest in _flagged(config_class):
        if spec.type == "bool":
            kind = {"action": "store_true"}
        else:
            kind = {
                "type": _FLAG_TYPES[spec.type.split(" | ")[0]],
                "choices": declared.choices,
                "metavar": declared.metavar,
            }
        parser.add_argument(
            declared.flag, dest=dest, default=spec.default, help=declared.help, **kind
        )


def settings_from_args(config_class, args):
    """The validated ``config_class`` a parsed flag namespace describes.

    A flag the parser did not declare leaves its field at the default.
    """
    return config_class(
        **{
            spec.name: getattr(args, dest, spec.default)
            for spec, _, dest in _flagged(config_class)
        }
    )


def auto_worker_count() -> int:
    """Worker count for ``workers=0``: an estimate of *physical* cores.

    ``os.cpu_count()`` reports logical CPUs; on SMT machines that is twice
    the physical core count, and CPU-bound sparse kernels gain nothing from
    hyperthread siblings fighting over the same vector units.  Halving the
    logical count (floor 1) is the standard portable estimate — Python
    exposes no physical-core API.
    """
    return max(1, (os.cpu_count() or 1) // 2)


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable service deployment settings (one ``repro serve`` process)."""

    workers: int = setting(
        4,
        "workers executing queries over the shared index; 0 auto-sizes to "
        "the physical-core estimate (os.cpu_count()/2, floor 1)",
        flag="--workers",
        metavar="N",
        at_least=0,
    )
    backend: str = setting(
        "thread",
        "execution backend: 'thread' shares the engine in-process; "
        "'process' spawns workers over zero-copy views of one committed "
        "array store, under /dev/shm on the ram tier (results are "
        "identical; see docs/service.md)",
        flag="--backend",
        choices=("thread", "process"),
    )
    queue_depth: int = setting(
        64,
        "requests allowed to wait beyond the busy workers; requests past "
        "workers+queue-depth are shed with HTTP 429",
        flag="--queue-depth",
        metavar="N",
        at_least=0,
    )
    timeout_seconds: float | None = setting(
        None,
        "per-request execution deadline, counted from the moment a worker "
        "picks the request up (HTTP 504 on overrun; default unlimited)",
        flag="--timeout",
        metavar="SECONDS",
        positive=True,
    )
    cache_ttl_seconds: float | None = setting(
        60.0,
        "result cache entry lifetime; on the command line 0 disables the "
        "result cache, in code None means entries never expire",
        flag="--cache-ttl",
        metavar="SECONDS",
        at_least=0,
    )
    cache_max_entries: int = setting(
        1024,
        "result cache capacity in entries; 0 disables result caching",
        at_least=0,
    )
    subpath_cache_mb: float = setting(
        32.0,
        "shared cache of length-2 sub-path products reused across "
        "concurrent queries whose meta-paths overlap; 0 disables it",
        flag="--subpath-cache-mb",
        metavar="MB",
        at_least=0,
    )
    adaptive: bool = setting(
        False,
        "enable workload-adaptive re-indexing (spm strategy only): a "
        "background thread mines admitted queries and atomically hot-swaps "
        "an SPM index built around the observed hot vertices",
        flag="--adaptive",
    )
    reindex_interval_seconds: float = setting(
        30.0,
        "period of the adaptive re-index cycle (with --adaptive)",
        flag="--reindex-interval",
        metavar="SECONDS",
        positive=True,
    )
    reindex_min_queries: int = setting(
        32,
        "new admissions required before a re-index cycle re-plans",
        flag="--reindex-min-queries",
        metavar="N",
        at_least=1,
    )
    max_index_mb: float | None = setting(
        None,
        "byte budget of adaptively rebuilt SPM indexes (hottest vertices "
        "first; default unbounded, like the paper's static build)",
        flag="--max-index-mb",
        metavar="MB",
        positive=True,
    )
    storage: str = setting(
        "ram",
        "array tier: 'ram' holds adjacency and index in memory; 'mmap' "
        "spills them to file-backed buffers and builds the pm index "
        "out-of-core in bounded row blocks, so networks larger than RAM "
        "still serve (see docs/scale.md)",
        flag="--storage",
        choices=("ram", "mmap"),
    )
    storage_dir: str | None = setting(
        None,
        "directory for mmap-tier array files and file-backed worker "
        "segments (a private temp dir when omitted)",
        flag="--storage-dir",
        metavar="DIR",
    )
    max_build_memory_mb: float | None = setting(
        None,
        "approximate per-block memory budget of the out-of-core index "
        "build; shrinks the effective block size when needed",
        flag="--max-build-memory-mb",
        metavar="MB",
        positive=True,
    )

    def __post_init__(self) -> None:
        _check(self)
        if self.workers == 0:
            # Frozen dataclass: resolve the auto-size in place so every
            # consumer (admission capacity, stats, backends) sees the real
            # worker count rather than the sentinel.
            object.__setattr__(self, "workers", auto_worker_count())

    @property
    def capacity(self) -> int:
        """Maximum concurrently admitted requests (executing + queued)."""
        return self.workers + self.queue_depth
