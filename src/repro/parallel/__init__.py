"""Parallel sweep engine.

The throughput layer of the reproduction: :mod:`repro.parallel.sweep`
fans independent grid points out over a process pool with a bit-identical
serial reference path.  The Erlang-inversion cache every sweep point
leans on lives in :mod:`repro.queueing.cache` and is re-exported here.
Determinism is a tested contract, not an aspiration — see
``tests/parallel/``.
"""

from ..queueing.cache import (
    ErlangCache,
    cached_erlang_b,
    cached_min_servers,
    cached_min_servers_continuous,
    cached_min_servers_grid,
    configure_shared_cache,
    record_cache_metrics,
    shared_cache,
)
from .sweep import (
    ParallelSweep,
    SweepStats,
    chunk_grid,
    seed_for,
    sweep_grid,
    sweep_map,
)

__all__ = [
    "ErlangCache",
    "ParallelSweep",
    "SweepStats",
    "cached_erlang_b",
    "cached_min_servers",
    "cached_min_servers_continuous",
    "cached_min_servers_grid",
    "chunk_grid",
    "configure_shared_cache",
    "record_cache_metrics",
    "seed_for",
    "shared_cache",
    "sweep_grid",
    "sweep_map",
]
