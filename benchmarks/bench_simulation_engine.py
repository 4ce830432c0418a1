"""Performance benchmarks for the simulation substrate itself.

Not a paper artifact — these guard the reproducibility harness: the DES
engine and the fast loss-system simulator must stay fast enough that the
publication-grade (``--full``) experiment runs remain practical.
"""

import numpy as np
import pytest

from repro.queueing.poisson import poisson_arrivals
from repro.simulation.engine import Simulator
from repro.simulation.loss_network import (
    LossNetwork,
    ServiceTraffic,
    simulate_loss_system,
)
from repro.core.inputs import ResourceKind

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK_IO


@pytest.mark.benchmark(group="engine")
def test_event_loop_throughput(benchmark):
    def run_chain():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule_in(0.001, tick)

        sim.schedule_at(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run_chain) == 20_000


@pytest.mark.benchmark(group="engine")
def test_fast_loss_simulation_100k_arrivals(benchmark):
    rng = np.random.default_rng(3)
    arrivals = poisson_arrivals(10.0, 10_000.0, rng)

    def run():
        return simulate_loss_system(arrivals, 1.0, 8, np.random.default_rng(4))

    result = benchmark(run)
    assert result.arrived == arrivals.size


@pytest.mark.benchmark(group="engine")
def test_loss_network_event_rate(benchmark):
    def run():
        net = LossNetwork(
            4,
            [
                ServiceTraffic.exponential("a", 20.0, {CPU: 10.0}),
                ServiceTraffic.exponential("b", 5.0, {CPU: 2.0}),
            ],
        )
        return net.run(400.0, np.random.default_rng(5))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.total_arrived > 5000


@pytest.mark.benchmark(group="engine")
def test_loss_network_group1(benchmark):
    # The paper's group-1 Web+DB pool scaled 26x at its sized N = 29: ~8k
    # arrivals in 0.5 virtual seconds with ~30 holds queued at once, so
    # unlike the chain above every push and pop sifts a deep heap.
    # Holding rates are mu * impact factor (Web CPU 3360 * 0.65, Web disk
    # 1420 * 0.8, DB CPU 100 * 0.9).
    def run():
        net = LossNetwork(
            29,
            [
                ServiceTraffic.exponential(
                    "web", 600.0 * 26, {CPU: 3360.0 * 0.65, DISK: 1420.0 * 0.8}
                ),
                ServiceTraffic.exponential("db", 40.0 * 26, {CPU: 100.0 * 0.9}),
            ],
        )
        return net.run(0.5, np.random.default_rng(2009))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.total_arrived > 0
