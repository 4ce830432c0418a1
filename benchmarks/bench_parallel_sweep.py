"""Benchmark: sweep-engine throughput, serial vs process pool.

The workload is a grid of Erlang-B inversions through the *uncached*
:func:`repro.queueing.erlang.min_servers` — memoization would turn every
repeat after the first into a dictionary lookup and the serial-vs-pool
comparison would measure nothing.  Both cases run the identical 96-task
grid, so the BENCH artifact records both throughputs side by side.  One
serial pass takes a few milliseconds, so the jobs=4 case mostly times
pool start-up and task submission: the fixed cost a sweep pays before
a pool can win, which is itself worth tracking.

The timed body is the sweep plus a shape check.  Pool output equal to
serial output element for element is the engine's contract, pinned in
``tests/parallel/test_determinism.py``, so it is not re-checked here.
"""

from functools import partial

import pytest

from repro.parallel.sweep import sweep_map
from repro.queueing.erlang import min_servers

#: Offered loads spanning the model's operating range (small web islands
#: up to consolidated fleets).
GRID = tuple(2.0 + 3.7 * i for i in range(96))

#: One grid task; a partial of a package function pickles under any
#: process start method.
_INVERT = partial(min_servers, blocking_target=0.01)


def run_sweep(jobs: int) -> list[int]:
    """Fleet size per grid load at ``jobs`` workers (deterministic output)."""
    return sweep_map(_INVERT, GRID, jobs=jobs, name=f"bench:jobs{jobs}")


@pytest.mark.benchmark(group="parallel-sweep")
@pytest.mark.parametrize("jobs", [1, 4], ids=["serial", "jobs4"])
def test_parallel_sweep(benchmark, jobs):
    sizes = benchmark(run_sweep, jobs)
    assert len(sizes) == len(GRID)
    # Fleet sizes grow with offered load across the grid.
    assert sizes[-1] > sizes[0]
