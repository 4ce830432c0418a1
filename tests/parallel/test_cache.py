"""Cache-equivalence properties: memoization may change timing, never numbers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, scoped_registry
from repro.queueing import erlang, vectorized
from repro.queueing.cache import (
    GRID_SCALAR_CUTOFF,
    ErlangCache,
    record_cache_metrics,
    shared_cache,
)

# Loads/targets spanning the paper's operating range; values are drawn on
# the cache's rounding grid so cached and uncached calls see identical
# floats (off-grid inputs are covered by the tolerance test below).
loads = st.decimals(
    min_value="0.001", max_value="500.0", places=6
).map(float)
targets = st.decimals(
    min_value="0.0001", max_value="0.5", places=6
).map(float)


class TestCachedEqualsUncached:
    @given(rho=loads, target=targets)
    @settings(max_examples=60, deadline=None)
    def test_min_servers(self, rho, target):
        cache = ErlangCache()
        expected = erlang.min_servers(rho, target)
        assert cache.min_servers(rho, target) == expected  # miss
        assert cache.min_servers(rho, target) == expected  # hit
        assert cache.stats()["hits"] == 1

    @given(rho=loads, target=targets)
    @settings(max_examples=40, deadline=None)
    def test_min_servers_continuous(self, rho, target):
        cache = ErlangCache()
        expected = erlang.min_servers_continuous(rho, target)
        assert cache.min_servers_continuous(rho, target) == expected
        assert cache.min_servers_continuous(rho, target) == expected

    @given(n=st.integers(min_value=0, max_value=400), rho=loads)
    @settings(max_examples=60, deadline=None)
    def test_erlang_b(self, n, rho):
        cache = ErlangCache()
        expected = erlang.erlang_b(n, rho)
        assert cache.erlang_b(n, rho) == expected
        assert cache.erlang_b(n, rho) == expected

    def test_sweep_of_repeated_loads_stays_exact(self):
        # A dense sweep with heavy key reuse: every return must equal the
        # uncached solver's, and the reuse must show up as hits.
        cache = ErlangCache()
        grid = [(round(0.5 + 0.25 * (i % 40), 3), 0.01) for i in range(200)]
        for rho, target in grid:
            assert cache.min_servers(rho, target) == erlang.min_servers(rho, target)
        stats = cache.stats()
        assert stats["misses"] == 40
        assert stats["hits"] == 160


class TestKeyTolerance:
    def test_inputs_within_rounding_share_an_entry(self):
        cache = ErlangCache()
        base = 12.345678900
        nudged = base + 1e-11  # below RHO_DECIMALS resolution
        assert cache.key_for("min_servers", base, 0.01) == cache.key_for(
            "min_servers", nudged, 0.01
        )
        first = cache.min_servers(base, 0.01)
        assert cache.min_servers(nudged, 0.01) == first
        assert cache.stats()["hits"] == 1
        # The shared entry cannot return anything outside the rounding
        # tolerance: both inputs invert to the same fleet size anyway.
        assert erlang.min_servers(nudged, 0.01) == first

    def test_inputs_beyond_rounding_do_not_collide(self):
        cache = ErlangCache()
        assert cache.key_for("min_servers", 10.0, 0.01) != cache.key_for(
            "min_servers", 10.0 + 1e-8, 0.01
        )

    def test_distinct_qos_classes_stay_apart(self):
        cache = ErlangCache()
        keys = {cache.key_for("min_servers", 50.0, t) for t in (1e-2, 1e-3, 1e-4)}
        assert len(keys) == 3

    def test_tiny_targets_keep_their_own_entries(self):
        # Targets are keyed by significant digits: 1e-13 and 4e-13 must not
        # share the entry that 12 plain decimals (both 0.0) would give them.
        cache = ErlangCache()
        assert cache.min_servers(50.0, 1e-13) == erlang.min_servers(50.0, 1e-13) == 110
        assert cache.min_servers(50.0, 4e-13) == erlang.min_servers(50.0, 4e-13) == 109
        assert cache.stats()["misses"] == 2

    def test_kinds_do_not_collide(self):
        cache = ErlangCache()
        assert cache.min_servers(30.0, 0.01) >= cache.min_servers_continuous(
            30.0, 0.01
        ) - 1
        assert cache.stats()["misses"] == 2  # separate entries per solver

    def test_erlang_b_key_includes_server_count(self):
        cache = ErlangCache()
        assert cache.erlang_b(10, 8.0) != cache.erlang_b(12, 8.0)
        assert cache.stats()["misses"] == 2

    @given(rho=st.floats(min_value=0.001, max_value=500.0,
                         allow_nan=False, allow_infinity=False),
           target=st.floats(min_value=0.0001, max_value=0.5,
                            allow_nan=False, allow_infinity=False))
    @settings(max_examples=80, deadline=None)
    def test_cache_on_vs_off_agrees_within_rounding_tolerance(self, rho, target):
        # Off-grid inputs may share an entry with their rounded neighbour;
        # the cached answer must equal the uncached answer of SOME input
        # within the rounding tolerance — concretely, the rounded key
        # point — and min_servers moves by at most one server across a
        # 1e-9 load perturbation at these scales.
        cache = ErlangCache()
        # Prime with the rounded key point so the off-grid query below
        # exercises the collision path (a shared entry), not a fresh miss.
        rho_key = round(rho, ErlangCache.RHO_DECIMALS)
        target_key = round(target, ErlangCache.TARGET_DECIMALS)
        cache.min_servers(rho_key, target_key)
        cached = cache.min_servers(rho, target)
        uncached = erlang.min_servers(rho, target)
        at_key = erlang.min_servers(rho_key, target_key)
        assert cached == uncached or cached == at_key
        assert abs(cached - uncached) <= 1


class TestEviction:
    def test_bound_is_enforced(self):
        cache = ErlangCache(maxsize=8)
        for i in range(50):
            cache.min_servers(1.0 + i, 0.01)
        stats = cache.stats()
        assert len(cache) <= 8
        assert stats["evictions"] == 50 - 8

    def test_results_survive_eviction_pressure(self):
        # A tiny cache thrashing through a cycling workload must still
        # return exactly what the uncached solver returns, every call.
        cache = ErlangCache(maxsize=4)
        grid = [1.0 + (i % 10) for i in range(80)]
        for rho in grid:
            assert cache.min_servers(rho, 0.02) == erlang.min_servers(rho, 0.02)
        assert cache.stats()["evictions"] > 0

    def test_lru_order(self):
        cache = ErlangCache(maxsize=2)
        cache.min_servers(1.0, 0.01)
        cache.min_servers(2.0, 0.01)
        cache.min_servers(1.0, 0.01)  # refresh 1.0
        cache.min_servers(3.0, 0.01)  # evicts 2.0, not 1.0
        cache.min_servers(1.0, 0.01)
        assert cache.stats()["hits"] == 2

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError, match="positive"):
            ErlangCache(maxsize=0)


class TestSharedCacheAndMetrics:
    def test_record_cache_metrics_scopes_to_baseline(self):
        cache = shared_cache()  # cleared before every test by conftest
        cache.min_servers(5.0, 0.01)
        baseline = cache.stats()
        cache.min_servers(5.0, 0.01)  # 1 hit after baseline
        cache.min_servers(6.0, 0.01)  # 1 miss after baseline
        registry = MetricsRegistry("test")
        record_cache_metrics(registry, baseline)
        snap = registry.snapshot()
        assert snap["erlang_cache_hits_total"]["series"] == [
            {"labels": {"origin": "parent"}, "value": 1.0}
        ]
        assert snap["erlang_cache_misses_total"]["series"] == [
            {"labels": {"origin": "parent"}, "value": 1.0}
        ]
        assert snap["erlang_cache_size"]["series"][0]["value"] == 2.0

    def test_record_cache_metrics_noop_when_disabled(self):
        class Disabled:
            enabled = False

        record_cache_metrics(Disabled())  # must not raise or record

    def test_clear_resets_everything(self):
        cache = ErlangCache()
        cache.min_servers(3.0, 0.01)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0, "maxsize": 65536,
            "rho_decimals": 9, "target_decimals": 12,
        }

    def test_nan_load_rejected_through_cache(self):
        # Validation bugs must not hide behind memoization, not even when
        # the bad input rounds onto a cached key: -1e-12 onto the key of
        # 0.0, a zero target onto the key of 1e-13.  Each case primes the
        # cache with a valid input, then expects the uncached solver's
        # error text.
        cache = ErlangCache()
        cases = [
            (cache.min_servers, erlang.min_servers, (5.0, 0.01), (math.nan, 0.01)),
            (cache.min_servers, erlang.min_servers, (0.0, 0.01), (-1e-12, 0.01)),
            (cache.min_servers, erlang.min_servers, (1.0, 1e-13), (1.0, 0.0)),
            (cache.min_servers_continuous, erlang.min_servers_continuous,
             (0.0, 0.01), (-1e-12, 0.01)),
            (cache.erlang_b, erlang.erlang_b, (3, 0.0), (3, -1e-12)),
            (cache.erlang_b, erlang.erlang_b, (3, 0.0), (-1, -1e-12)),
        ]
        for cached, uncached, valid, bad in cases:
            cached(*valid)
            with pytest.raises(ValueError) as want:
                uncached(*bad)
            with pytest.raises(ValueError) as got:
                cached(*bad)
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="finite"):
            cache.min_servers(math.nan, 0.01)


class TestMinServersGrid:
    def test_matches_scalar_path_and_counts_per_point(self):
        cache = ErlangCache()
        rhos = [0.5 + 0.25 * i for i in range(40)]
        expected = [erlang.min_servers(rho, 0.01) for rho in rhos]
        got = cache.min_servers_grid(rhos, 0.01)
        assert got.tolist() == expected
        assert cache.stats()["misses"] == 40
        # Second pass: all hits, same values.
        again = cache.min_servers_grid(rhos, 0.01)
        assert again.tolist() == expected
        assert cache.stats()["hits"] == 40

    def test_grid_and_scalar_calls_share_entries(self):
        cache = ErlangCache()
        scalar = cache.min_servers(12.5, 0.02)
        got = cache.min_servers_grid([12.5, 30.0], 0.02)
        assert got[0] == scalar
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_broadcasts_and_preserves_shape(self):
        cache = ErlangCache()
        rho = np.linspace(1.0, 20.0, 6).reshape(3, 2)
        out = cache.min_servers_grid(rho, 0.01)
        assert out.shape == (3, 2)
        flat = [erlang.min_servers(float(r), 0.01) for r in rho.reshape(-1)]
        assert out.reshape(-1).tolist() == flat

    def test_eviction_bound_holds_for_batches(self):
        cache = ErlangCache(maxsize=8)
        cache.min_servers_grid([1.0 + i for i in range(30)], 0.01)
        assert len(cache) <= 8
        assert cache.stats()["evictions"] == 30 - 8


#: Batch sizes on both sides of the scalar/lockstep cutoff.
CUTOFF_SIZES = [1, GRID_SCALAR_CUTOFF - 1, GRID_SCALAR_CUTOFF, 4 * GRID_SCALAR_CUTOFF]


def _batch(seed: int, size: int) -> tuple[list[float], list[float]]:
    """Seeded loads on [0, 300] with zeros and in-batch duplicates, per-point targets."""
    rng = np.random.default_rng(seed)
    rho = np.round(rng.uniform(0.0, 300.0, size), 3)
    rho[rng.random(size) < 0.1] = 0.0
    target = rng.choice([0.05, 0.01, 0.001, 1e-4], size)
    dup = rng.random(size) < 0.2
    src = rng.integers(0, size, size)
    rho[dup], target[dup] = rho[src[dup]], target[src[dup]]
    return rho.tolist(), target.tolist()


class TestGridCutoffDifferential:
    """``min_servers_grid`` equals per-point ``min_servers`` on both sides of the cutoff."""

    @pytest.mark.parametrize("size", CUTOFF_SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_values_match_per_point_inversions(self, seed, size):
        rho, target = _batch(seed, size)
        expected = [erlang.min_servers(r, t) for r, t in zip(rho, target)]
        assert ErlangCache().min_servers_grid(rho, target).tolist() == expected
        got = ErlangCache().min_servers_grid(np.array(rho), np.array(target))
        assert got.tolist() == expected

    @pytest.mark.parametrize("size", CUTOFF_SIZES)
    def test_two_dimensional_broadcast(self, size):
        rho, _ = _batch(7, size)
        column = np.array(rho).reshape(-1, 1)
        row = np.array([[0.02, 0.001]])
        got = ErlangCache().min_servers_grid(column, row)
        assert got.shape == (size, 2)
        expected = [[erlang.min_servers(r, t) for t in (0.02, 0.001)] for r in rho]
        assert got.tolist() == expected

    @pytest.mark.parametrize("size", CUTOFF_SIZES)
    @pytest.mark.parametrize("maxsize", [8, 65536])
    def test_counters_and_lru_move_as_per_point_calls(self, size, maxsize):
        rho, target = _batch(3, size)
        batched, per_point = ErlangCache(maxsize), ErlangCache(maxsize)
        # The same warm state on both: a few of the batch's points, cached.
        for cache in (batched, per_point):
            for r, t in zip(rho[::5], target[::5]):
                cache.min_servers(r, t)
        batched.min_servers_grid(rho, target)
        for r, t in zip(rho, target):
            per_point.min_servers(r, t)
        assert batched.stats() == per_point.stats()
        assert list(batched._store.items()) == list(per_point._store.items())

    def test_duplicates_inside_one_batch_are_solved_once(self):
        cache = ErlangCache()
        with scoped_registry() as reg:
            cache.min_servers_grid([40.0, 40.0, 7.5, 40.0], 0.01)
            solved = reg.counter(
                "erlang_inversion_calls_total", labels={"method": "recurrence"}
            ).value
        assert solved == 2
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 2

    @pytest.mark.parametrize("size", [2, GRID_SCALAR_CUTOFF - 1, GRID_SCALAR_CUTOFF, 256])
    @pytest.mark.parametrize(
        "bad_rho, bad_target",
        [
            (-1.0, 2.0),
            (math.nan, 0.0),
            (math.inf, math.nan),
            (-3.0, 0.01),
            (math.nan, 0.01),
        ],
    )
    def test_errors_match_the_array_entry_point(self, size, bad_rho, bad_target):
        rho = [5.0 + i for i in range(size)]
        target = [0.01] * size
        rho[size // 2] = bad_rho
        target[-1] = bad_target
        with pytest.raises(ValueError) as want:
            vectorized.min_servers(np.array(rho), np.array(target))
        cache = ErlangCache()
        cache.min_servers_grid(rho[: size // 2], 0.01)  # cached points do not hide errors
        with pytest.raises(ValueError) as got:
            cache.min_servers_grid(rho, target)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as got_arrays:
            ErlangCache().min_servers_grid(np.array(rho), np.array(target))
        assert str(got_arrays.value) == str(want.value)

    def test_first_offending_target_is_reported_by_check_not_position(self):
        # The array validators check finiteness over every target before
        # the range; the batch reports the NaN, not the earlier 2.0.
        with pytest.raises(ValueError, match="finite, got nan"):
            ErlangCache().min_servers_grid([1.0, 2.0], [2.0, math.nan])


def test_parallel_cache_reexports_the_same_objects():
    import repro.parallel
    import repro.parallel.cache as old_path
    import repro.queueing.cache as new_path

    for name in old_path.__all__:
        assert getattr(old_path, name) is getattr(new_path, name)
        assert getattr(repro.parallel, name) is getattr(new_path, name)
