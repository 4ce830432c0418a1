"""Benchmark: batched Erlang-B inversion vs the scalar per-point loop.

Both idioms run the identical deterministic (rho, B) grid through the
*uncached* entry points, so the artifact measures arithmetic dispatch,
not memoization.  The 100k-point pair backs the CI throughput-ratio
gate: the lockstep kernel must stay >= 10x the scalar loop
(``repro-bench ratio ... bench_vectorized_grid::test_scalar_100k
bench_vectorized_grid::test_vectorized_100k --min-ratio 10``).  The
1M-point grid is the headline single-call size.

The timed bodies are the solve plus shape checks.  That the lockstep
kernel reproduces the scalar loop's fleet sizes element for element is
pinned in ``tests/queueing/test_vectorized.py`` (the
``*bit_identical_to_scalar*`` tests), so it is not re-checked here.
"""

import numpy as np
import pytest

from repro.queueing import vectorized
from repro.queueing.erlang import min_servers

#: Grid size of the ratio-gated pair.
POINTS = 100_000
#: Grid size of the headline single-call benchmark.
MILLION = 1_000_000


def grid(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (rho, B) grid over the model's operating range."""
    return np.linspace(0.5, 120.0, points), np.full(points, 0.01)


def solve_scalar(points: int) -> np.ndarray:
    """The pre-vectorization idiom: one scalar inversion per grid point."""
    rho, target = grid(points)
    return np.asarray(
        [min_servers(float(r), float(t)) for r, t in zip(rho, target)],
        dtype=np.int64,
    )


def solve_vectorized(points: int) -> np.ndarray:
    """The batched idiom: the whole grid in one lockstep call."""
    rho, target = grid(points)
    return vectorized.min_servers(rho, target)


def _check(sizes: np.ndarray, points: int) -> None:
    assert len(sizes) == points
    # Fleet sizes grow with offered load across the grid.
    assert sizes[-1] > sizes[0]


@pytest.mark.benchmark(group="vectorized-grid")
def test_scalar_100k(benchmark):
    _check(benchmark(solve_scalar, POINTS), POINTS)


@pytest.mark.benchmark(group="vectorized-grid")
def test_vectorized_100k(benchmark):
    _check(benchmark(solve_vectorized, POINTS), POINTS)


@pytest.mark.benchmark(group="vectorized-grid")
def test_vectorized_1m(benchmark):
    _check(benchmark(solve_vectorized, MILLION), MILLION)
