"""Process-pool sweep engine with a bit-identical serial reference path.

Every application of the paper's model (Sections III–V) is a dense
parameter sweep: server-count curves, utilization/power ratios, QoS
bounds.  Each point is cheap but independent, so the sweep fans out
across cores — under one hard contract: **the parallel result is
bit-identical to the serial one**.

Three ingredients enforce the contract:

- :func:`seed_for` derives every task's RNG seed from ``(base_seed,
  task_index)`` alone — not from the chunk it lands in, the worker that
  runs it, or the order it completes — so any partitioning of the grid
  sees the same random streams;
- :func:`chunk_grid` splits the grid into contiguous chunks that remember
  their start index, so results can be stitched back in submission order;
- :class:`ParallelSweep` runs chunks via
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs=1`` runs the
  same chunk code inline, which *is* the serial reference) and merges
  chunk outputs in submission order.

Cache accounting: chunks that execute in *worker processes* mutate the
workers' own shared-cache counters, which the parent cannot see, so each
chunk ships its hit/miss/eviction deltas back with its results and the
sweep folds them into the parent's metrics registry (label
``origin="workers"``).  Chunks run inline mutate the parent's cache
directly; those counters reach the registry through
:func:`repro.queueing.cache.record_cache_metrics` (label
``origin="parent"``), so nothing is ever counted twice.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import ceil
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..obs import get_registry, get_trace
from ..queueing.cache import shared_cache

__all__ = [
    "seed_for",
    "chunk_grid",
    "ParallelSweep",
    "SweepStats",
    "sweep_map",
    "sweep_grid",
]


def seed_for(base_seed: int, task_index: int) -> int:
    """Deterministic 64-bit seed for one grid point.

    Depends only on ``(base_seed, task_index)`` — hashed through SHA-256
    so neighbouring task indices get uncorrelated streams — and therefore
    survives any re-chunking or re-ordering of the sweep.  This is the
    keystone of the ``jobs=N == jobs=1`` guarantee for seeded tasks.
    """
    if task_index < 0:
        raise ValueError(f"task index must be non-negative, got {task_index}")
    payload = f"repro.parallel:{base_seed}:{task_index}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def chunk_grid(grid: Sequence[Any], chunk_size: int) -> Iterator[tuple[int, list]]:
    """Split ``grid`` into contiguous ``(start_index, items)`` chunks."""
    if chunk_size < 1:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")
    for start in range(0, len(grid), chunk_size):
        yield start, list(grid[start : start + chunk_size])


_CACHE_COUNTERS = ("hits", "misses", "evictions")


def _cache_delta(before: dict[str, int]) -> dict[str, int]:
    """This process's shared-cache counter movement since ``before``."""
    after = shared_cache().stats()
    return {key: after[key] - before[key] for key in _CACHE_COUNTERS}


def _run_chunk(
    fn: Callable[..., Any],
    base_seed: int | None,
    start_index: int,
    items: list,
) -> tuple[list, dict[str, int]]:
    """Run one contiguous chunk; returns results + cache-stat deltas.

    Module-level so it pickles for the process pool; the serial path runs
    this same code inline, so both paths execute identical calls.
    """
    before = shared_cache().stats()
    results = []
    for offset, item in enumerate(items):
        if base_seed is None:
            results.append(fn(item))
        else:
            results.append(fn(item, seed=seed_for(base_seed, start_index + offset)))
    return results, _cache_delta(before)


def _run_grid_chunk(
    fn: Callable[..., Any],
    base_seed: int | None,
    start_index: int,
    block: Any,
) -> tuple[list, dict[str, int]]:
    """Run one contiguous column block; returns results + cache deltas.

    The columnar analogue of :func:`_run_chunk`: ``fn`` receives the whole
    block (a :class:`repro.experiments.base.ParamGrid` slice) at once,
    plus per-row seeds derived from the rows' positions in the *original*
    grid — the same ``seed_for(base_seed, index)`` values the per-point
    path would have used, so block boundaries cannot perturb any random
    stream.  ``fn`` must return one result per row.
    """
    before = shared_cache().stats()
    if base_seed is None:
        results = list(fn(block))
    else:
        seeds = [seed_for(base_seed, start_index + i) for i in range(len(block))]
        results = list(fn(block, seeds=seeds))
    if len(results) != len(block):
        raise ValueError(
            f"grid task returned {len(results)} results for a "
            f"{len(block)}-row block"
        )
    return results, _cache_delta(before)


@dataclass
class SweepStats:
    """Accounting for one :meth:`ParallelSweep.run` call.

    ``cache_*`` totals cover the whole run regardless of where chunks
    executed: inline chunks are measured as the parent cache's delta
    around the run, pooled chunks through the deltas their workers ship
    back.
    """

    jobs: int = 1
    tasks: int = 0
    chunks: int = 0
    wall_s: float = 0.0
    pool_used: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    def add_cache(self, delta: dict[str, int]) -> None:
        self.cache_hits += delta["hits"]
        self.cache_misses += delta["misses"]
        self.cache_evictions += delta["evictions"]

    def as_dict(self) -> dict[str, Any]:
        return {
            "jobs": self.jobs,
            "tasks": self.tasks,
            "chunks": self.chunks,
            "wall_s": self.wall_s,
            "pool_used": self.pool_used,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
        }


class ParallelSweep:
    """Deterministic fan-out of an independent-task grid.

    ``fn`` must be a picklable module-level callable.  It is invoked as
    ``fn(item)`` when ``base_seed is None``, else as ``fn(item,
    seed=seed_for(base_seed, index))`` with ``index`` the task's position
    in the original grid.  Results come back in grid order regardless of
    completion order, so ``run()`` output is bit-identical across
    ``jobs`` values — the property the determinism test layer pins.

    ``jobs=1`` never spawns processes: the chunk code runs inline and is
    the reference implementation the pool is checked against.  If the
    platform refuses to give us a process pool (sandboxes without fork
    permission), the sweep degrades to the serial path with a trace
    warning rather than failing — results are identical either way.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        *,
        jobs: int = 1,
        chunk_size: int | None = None,
        base_seed: int | None = None,
        name: str = "sweep",
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be positive, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk size must be positive, got {chunk_size}")
        self.fn = fn
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.base_seed = base_seed
        self.name = name
        self.stats = SweepStats(jobs=jobs)

    def _resolved_chunk_size(self, n_tasks: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        # Aim for a few chunks per worker so one straggler chunk cannot
        # serialise the tail of the sweep.
        return max(1, ceil(n_tasks / (self.jobs * 4)))

    def run(self, grid: Sequence[Any]) -> list:
        """Evaluate ``fn`` over ``grid``; results in grid order."""
        grid = list(grid)
        return self._sweep(len(grid), partial(chunk_grid, grid), _run_chunk)

    def run_grid(self, grid: Any) -> list:
        """Evaluate a *block* task function over a columnar grid.

        ``grid`` is any columnar container with ``__len__`` and
        ``blocks(chunk_size)`` — in practice a
        :class:`repro.experiments.base.ParamGrid` (duck-typed here so the
        engine stays import-free of the experiments layer).  ``fn`` is
        called as ``fn(block)`` (or ``fn(block, seeds=[...])`` when
        ``base_seed`` is set) and must return one result per block row;
        results come back stitched in grid order.  Chunking, pooling,
        seed derivation, and cache accounting are :meth:`run`'s, so the
        jobs∈{1,N} bit-identity contract carries over verbatim.
        """
        return self._sweep(len(grid), grid.blocks, _run_grid_chunk)

    def _sweep(
        self,
        n_tasks: int,
        make_chunks: Callable[[int], Iterable[tuple[int, Any]]],
        runner: Callable[..., tuple[list, dict[str, int]]],
    ) -> list:
        """The one body behind :meth:`run` and :meth:`run_grid`.

        Only chunk construction and the per-chunk ``runner`` differ
        between the two; everything else (serial/pool choice, merge order,
        stats, cache accounting) is shared.
        """
        stats = SweepStats(jobs=self.jobs, tasks=n_tasks)
        self.stats = stats
        if not n_tasks:
            return []
        t0 = perf_counter()
        parent_before = shared_cache().stats()
        chunks = list(make_chunks(self._resolved_chunk_size(n_tasks)))
        stats.chunks = len(chunks)

        if self.jobs == 1 or len(chunks) == 1:
            merged = self._run_serial(chunks, runner)
        else:
            merged = self._run_pool(chunks, stats, runner)
        stats.add_cache(_cache_delta(parent_before))
        stats.wall_s = perf_counter() - t0
        self._record(stats)
        return merged

    def _run_serial(
        self,
        chunks: list[tuple[int, Any]],
        runner: Callable[..., tuple[list, dict[str, int]]],
    ) -> list:
        out: list = []
        for start, items in chunks:
            # The inline chunk mutates the parent cache directly; _sweep()
            # measures that as one delta around the whole sweep.
            results, _delta = runner(self.fn, self.base_seed, start, items)
            out.extend(results)
        return out

    def _run_pool(
        self,
        chunks: list[tuple[int, Any]],
        stats: SweepStats,
        runner: Callable[..., tuple[list, dict[str, int]]],
    ) -> list:
        try:
            executor = ProcessPoolExecutor(max_workers=self.jobs)
        except (OSError, PermissionError, ValueError) as exc:
            get_trace().warning(
                "sweep_pool_unavailable", sweep=self.name, error=str(exc)
            )
            return self._run_serial(chunks, runner)
        worker_deltas: list[dict[str, int]] = []
        with executor:
            futures = [
                executor.submit(runner, self.fn, self.base_seed, start, items)
                for start, items in chunks
            ]
            # Futures are consumed in submission order, which is grid
            # order: the merge cannot depend on completion order.
            out: list = []
            for future in futures:
                results, delta = future.result()
                out.extend(results)
                worker_deltas.append(delta)
        for delta in worker_deltas:
            stats.add_cache(delta)
        stats.pool_used = True
        self._record_worker_cache(worker_deltas)
        return out

    def _record(self, stats: SweepStats) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        labels = {"sweep": self.name}
        registry.counter(
            "sweep_tasks_total",
            help="grid points evaluated by ParallelSweep",
            labels=labels,
        ).inc(stats.tasks)
        registry.counter(
            "sweep_chunks_total",
            help="chunks dispatched by ParallelSweep",
            labels=labels,
        ).inc(stats.chunks)
        registry.timer(
            "sweep_seconds", help="wall time per ParallelSweep.run", labels=labels
        ).observe(stats.wall_s)
        registry.gauge(
            "sweep_jobs", help="worker count of the latest sweep", labels=labels
        ).set(stats.jobs)

    @staticmethod
    def _record_worker_cache(deltas: list[dict[str, int]]) -> None:
        """Surface child-process cache activity in the parent registry.

        Worker registries die with the workers; these counters are the
        only way their cache effectiveness reaches run manifests.
        """
        registry = get_registry()
        if not registry.enabled:
            return
        labels = {"origin": "workers"}
        totals = {key: sum(delta[key] for delta in deltas) for key in _CACHE_COUNTERS}
        for key, amount in totals.items():
            if amount:
                registry.counter(
                    f"erlang_cache_{key}_total",
                    help=f"shared Erlang-cache {key} (see repro.queueing.cache)",
                    labels=labels,
                ).inc(amount)


def sweep_map(
    fn: Callable[..., Any],
    grid: Sequence[Any],
    *,
    jobs: int = 1,
    chunk_size: int | None = None,
    base_seed: int | None = None,
    name: str = "sweep",
) -> list:
    """One-shot :class:`ParallelSweep` convenience wrapper."""
    return ParallelSweep(
        fn, jobs=jobs, chunk_size=chunk_size, base_seed=base_seed, name=name
    ).run(grid)


def sweep_grid(
    fn: Callable[..., Any],
    grid: Any,
    *,
    jobs: int = 1,
    chunk_size: int | None = None,
    base_seed: int | None = None,
    name: str = "sweep",
) -> list:
    """One-shot :meth:`ParallelSweep.run_grid` convenience wrapper."""
    return ParallelSweep(
        fn, jobs=jobs, chunk_size=chunk_size, base_seed=base_seed, name=name
    ).run_grid(grid)
