"""Exact Mean Value Analysis for closed queueing networks.

TPC-W — the paper's DB workload — is a *closed* benchmark: a fixed
population of emulated browsers cycles between think time and service.
The right analytic tool for such systems is MVA (Reiser & Lavenberg):
for a product-form closed network of single-server FIFO stations plus a
delay (think) station, exact MVA computes throughput and per-station
response times by recursion over the population:

    R_k(n) = D_k * (1 + Q_k(n-1))          (queueing station)
    X(n)   = n / (Z + sum_k R_k(n))
    Q_k(n) = X(n) * R_k(n)

Also provided: the classical operational-law *asymptotic bounds*
(``X(n) <= min(n/(Z + D), 1/D_max)``) that the TPC-W throughput curves
(Fig. 8's "wips upper limit") saturate against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["MvaResult", "exact_mva", "throughput_bounds"]


@dataclass(frozen=True)
class MvaResult:
    """Exact MVA solution at one population size."""

    population: int
    throughput: float
    response_times: Mapping[str, float]
    queue_lengths: Mapping[str, float]
    think_time: float

    @property
    def cycle_time(self) -> float:
        """Mean time around the loop (think + all stations)."""
        return self.think_time + sum(self.response_times.values())

    @property
    def bottleneck(self) -> str:
        """Station with the largest response time."""
        return max(self.response_times, key=lambda k: self.response_times[k])

    def utilization(self, demands: Mapping[str, float]) -> dict[str, float]:
        """Per-station utilization ``X * D_k`` (utilization law)."""
        return {k: self.throughput * d for k, d in demands.items()}


def exact_mva(
    service_demands: Mapping[str, float],
    think_time: float,
    population: int,
) -> MvaResult:
    """Exact MVA for single-server stations + one delay station.

    ``service_demands[k]`` is station ``k``'s total service demand per
    interaction (seconds); ``think_time`` the delay-station demand ``Z``;
    ``population`` the number of circulating customers (EBs).
    """
    if not service_demands:
        raise ValueError("at least one station required")
    for name, d in service_demands.items():
        if d <= 0.0:
            raise ValueError(f"demand for {name!r} must be positive, got {d}")
    if think_time < 0.0:
        raise ValueError(f"think time must be non-negative, got {think_time}")
    if population < 0:
        raise ValueError(f"population must be non-negative, got {population}")

    names = list(service_demands)
    demands = [service_demands[k] for k in names]
    queues = [0.0] * len(names)
    throughput = 0.0
    responses = [0.0] * len(names)
    for n in range(1, population + 1):
        responses = [d * (1.0 + q) for d, q in zip(demands, queues)]
        cycle = think_time + sum(responses)
        throughput = n / cycle
        queues = [throughput * r for r in responses]

    return MvaResult(
        population=population,
        throughput=throughput,
        response_times=dict(zip(names, responses)),
        queue_lengths=dict(zip(names, queues)),
        think_time=think_time,
    )


def throughput_bounds(
    service_demands: Mapping[str, float],
    think_time: float,
    population: int,
) -> tuple[float, float]:
    """Operational-law bounds ``(lower-ish optimistic, hard upper)``.

    Returns ``(n/(Z + D_total), 1/D_max)``; the true closed-network
    throughput never exceeds the min of the two, and approaches each in
    its regime (light load / saturation).
    """
    if not service_demands:
        raise ValueError("at least one station required")
    if population < 0:
        raise ValueError(f"population must be non-negative, got {population}")
    d_total = sum(service_demands.values())
    d_max = max(service_demands.values())
    if d_max <= 0.0:
        raise ValueError("demands must be positive")
    light = population / (think_time + d_total) if population else 0.0
    saturation = 1.0 / d_max
    return light, saturation
