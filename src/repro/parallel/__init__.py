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
    "chunk_grid",
    "record_cache_metrics",
    "seed_for",
    "shared_cache",
    "sweep_grid",
    "sweep_map",
]
