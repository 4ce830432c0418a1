"""Unit tests for the sweep engine's moving parts.

Determinism across job counts is pinned in ``test_determinism.py``; this
file covers the mechanics it relies on — seed derivation, chunking,
ordering, stats accounting, and the graceful pool fallback.
"""

from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, TraceLog, scoped_registry, scoped_trace
from repro.parallel import ParallelSweep, chunk_grid, seed_for, sweep_map
from repro.parallel import sweep as sweep_mod
from repro.reporting.bench import _import_bench_module, discover_suite


BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def _square(x):
    return x * x


def _item_and_seed(x, *, seed):
    return (x, seed)


def _invert_small(rho):
    from repro.parallel import shared_cache

    return shared_cache().min_servers(rho, 0.01)


class TestSeedFor:
    def test_deterministic(self):
        assert seed_for(2009, 7) == seed_for(2009, 7)

    def test_varies_with_base_seed_and_index(self):
        seeds = {seed_for(b, i) for b in (0, 1, 2009) for i in range(8)}
        assert len(seeds) == 24  # no collisions across a small grid

    def test_64_bit_range(self):
        s = seed_for(2009, 0)
        assert 0 <= s < 2**64

    def test_independent_of_chunking(self):
        # The seed is a function of the task's grid index alone; the chunk
        # it lands in does not appear in the derivation at all.  Pin that
        # by recomputing the seeds a 3-chunk and a 5-chunk partition of
        # the same grid would hand their tasks.
        grid_len = 13
        for chunk_size in (3, 5):
            seeds = []
            for start, items in chunk_grid(list(range(grid_len)), chunk_size):
                seeds.extend(seed_for(42, start + off) for off in range(len(items)))
            assert seeds == [seed_for(42, i) for i in range(grid_len)]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            seed_for(2009, -1)


class TestChunkGrid:
    def test_partitions_in_order(self):
        chunks = list(chunk_grid(list(range(10)), 4))
        assert chunks == [(0, [0, 1, 2, 3]), (4, [4, 5, 6, 7]), (8, [8, 9])]

    def test_single_chunk(self):
        assert list(chunk_grid([1, 2], 100)) == [(0, [1, 2])]

    def test_empty_grid(self):
        assert list(chunk_grid([], 3)) == []

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="positive"):
            list(chunk_grid([1], 0))


class TestParallelSweep:
    def test_serial_maps_in_order(self):
        assert sweep_map(_square, range(7)) == [x * x for x in range(7)]

    def test_seeded_tasks_get_index_seeds(self):
        rows = sweep_map(_item_and_seed, ["a", "b", "c"], base_seed=11)
        assert rows == [("a", seed_for(11, 0)), ("b", seed_for(11, 1)),
                        ("c", seed_for(11, 2))]

    def test_pool_preserves_grid_order(self):
        rows = sweep_map(_square, range(20), jobs=2, chunk_size=3)
        assert rows == [x * x for x in range(20)]

    def test_empty_grid(self):
        sweep = ParallelSweep(_square, jobs=2)
        assert sweep.run([]) == []
        assert sweep.stats.tasks == 0

    def test_rejects_bad_jobs_and_chunk_size(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelSweep(_square, jobs=0)
        with pytest.raises(ValueError, match="chunk size"):
            ParallelSweep(_square, chunk_size=0)

    def test_stats_accounting(self):
        sweep = ParallelSweep(_square, jobs=2, chunk_size=4)
        sweep.run(range(10))
        stats = sweep.stats
        assert (stats.tasks, stats.chunks, stats.jobs) == (10, 3, 2)
        assert stats.pool_used
        assert stats.wall_s > 0.0
        doc = stats.as_dict()
        assert doc["tasks"] == 10 and "cache_hits" in doc

    def test_single_chunk_runs_inline(self):
        # One chunk means the pool buys nothing; the engine skips it.
        sweep = ParallelSweep(_square, jobs=4, chunk_size=10)
        assert sweep.run([1, 2, 3]) == [1, 4, 9]
        assert not sweep.stats.pool_used

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no fork for you")

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", refuse)
        trace = TraceLog()
        with scoped_trace(trace):
            rows = sweep_map(_square, range(9), jobs=3, chunk_size=2)
        assert rows == [x * x for x in range(9)]
        warnings = [e for e in trace.events() if e.name == "sweep_pool_unavailable"]
        assert len(warnings) == 1

    def test_records_sweep_metrics(self):
        registry = MetricsRegistry("test")
        with scoped_registry(registry):
            sweep_map(_square, range(5), name="unit")
        snap = registry.snapshot()
        series = snap["sweep_tasks_total"]["series"]
        assert series == [{"labels": {"sweep": "unit"}, "value": 5.0}]
        assert "sweep_seconds" in snap

    def test_pool_merges_worker_cache_counters(self):
        registry = MetricsRegistry("test")
        with scoped_registry(registry):
            sweep_map(_invert_small, [3.0, 5.0, 7.0, 9.0], jobs=2, chunk_size=2)
        snap = registry.snapshot()
        # Each worker performs two cache lookups; whether those land as
        # hits or misses depends on what the forked child inherited, but
        # the shipped-back deltas must account for all four, labelled as
        # worker-origin activity.
        total = 0.0
        for metric in ("erlang_cache_hits_total", "erlang_cache_misses_total"):
            for series in snap.get(metric, {}).get("series", []):
                assert series["labels"] == {"origin": "workers"}
                total += series["value"]
        assert total == 4.0

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            sweep_map(_divide_by_zero, range(8), jobs=2, chunk_size=2)


def _divide_by_zero(x):
    return x / 0


class TestRegisteredBenchmarks:
    """The on-disk sweep benchmark, as ``repro-bench run`` discovers it."""

    def test_bench_workload_is_deterministic(self):
        # The timed bodies skip the pool-equals-serial check; this runs
        # the benchmark's own task function through a real pool once.
        bench = _import_bench_module(BENCH_DIR / "bench_parallel_sweep.py")
        rows = bench.run_sweep(1)
        assert len(rows) == len(bench.GRID)
        assert bench.run_sweep(4) == rows

    def test_discovery_lists_both_variants(self):
        names = {s.name for s in discover_suite(BENCH_DIR)}
        assert "bench_parallel_sweep::test_parallel_sweep[serial]" in names
        assert "bench_parallel_sweep::test_parallel_sweep[jobs4]" in names
