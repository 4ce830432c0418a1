"""Delay-system (queueing, not loss) simulation.

The headline model is a loss system, but two of the paper's measurements
are *delay* quantities: Fig. 9's Web panel plots mean response time, and
the testbed's LVS front end queues rather than drops below saturation.
This module simulates an ``n``-server FIFO queue (M/G/n) on the DES engine
and reports response-time statistics, validating the closed-form M/M/n
results in :mod:`repro.queueing.mmn`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..queueing.distributions import Distribution, as_distribution
from .engine import Simulator
from .metrics import RunningStats, TimeWeightedStat

__all__ = ["DelaySystemResult", "simulate_delay_system"]


@dataclass(frozen=True)
class DelaySystemResult:
    """Measured behaviour of one M/G/n queue run."""

    servers: int
    completed: int
    mean_response_time: float
    mean_wait: float
    p95_wait_bound: float
    mean_queue_length: float
    utilization: float
    probability_of_wait: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.utilization <= 1.0 + 1e-9:
            raise ValueError(f"utilization out of range: {self.utilization}")


def simulate_delay_system(
    arrival_rate: float,
    service: Distribution | float,
    servers: int,
    horizon: float,
    rng: np.random.Generator,
    warmup_fraction: float = 0.1,
) -> DelaySystemResult:
    """Simulate an M/G/n FIFO queue over ``[0, horizon]``.

    Statistics exclude a warm-up prefix so the transient empty-system start
    does not bias the steady-state estimates.  Waits are collected exactly;
    ``p95_wait_bound`` is a Markov-inequality upper bound computed from the
    mean (keeping the accumulator O(1) — good enough for the shape checks
    the harness performs).
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if arrival_rate <= 0.0:
        raise ValueError(f"arrival rate must be positive, got {arrival_rate}")
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup fraction must lie in [0, 1), got {warmup_fraction}")
    dist = as_distribution(service)

    sim = Simulator()
    warmup_end = horizon * warmup_fraction
    queue: deque[float] = deque()  # arrival times of waiting requests
    busy = 0
    waits = RunningStats()
    responses = RunningStats()
    waited_count = 0
    queue_len = TimeWeightedStat(0.0, 0.0)
    busy_stat = TimeWeightedStat(0.0, 0.0)

    def start_service(arrived_at: float) -> None:
        nonlocal busy, waited_count
        wait = sim.now - arrived_at
        hold = float(dist.sample(rng))
        if arrived_at >= warmup_end:
            waits.add(wait)
            responses.add(wait + hold)
            if wait > 1e-12:
                waited_count += 1
        busy_stat.update(sim.now, busy + 1)
        busy += 1
        sim.schedule_in(hold, depart)

    def depart() -> None:
        nonlocal busy
        busy_stat.update(sim.now, busy - 1)
        busy -= 1
        if queue:
            queue_len.update(sim.now, len(queue) - 1)
            start_service(queue.popleft())

    def arrive() -> None:
        if busy < servers:
            start_service(sim.now)
        else:
            queue_len.update(sim.now, len(queue) + 1)
            queue.append(sim.now)
        gap = rng.exponential(1.0 / arrival_rate)
        if sim.now + gap <= horizon:
            sim.schedule_in(gap, arrive)

    first = rng.exponential(1.0 / arrival_rate)
    if first <= horizon:
        sim.schedule_at(first, arrive)
    sim.run()
    end = max(sim.now, horizon)
    queue_len.finalize(end)
    busy_stat.finalize(end)

    completed = responses.count
    mean_wait = waits.mean if completed else 0.0
    effective = end - warmup_end
    return DelaySystemResult(
        servers=servers,
        completed=completed,
        mean_response_time=responses.mean if completed else 0.0,
        mean_wait=mean_wait,
        p95_wait_bound=mean_wait / 0.05 if completed else 0.0,
        mean_queue_length=queue_len.time_average(end),
        utilization=min(busy_stat.time_average(end) / servers, 1.0),
        probability_of_wait=(waited_count / completed) if completed else 0.0,
    )
