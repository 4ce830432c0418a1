"""Closed-form performance metrics for the M/M/n delay system.

The paper's model treats each resource of the pooled data center as an
``n``-server Erlang loss system.  The delay (Erlang C) variant packaged
here backs the sanity checks on response time: the DES delay simulation
is validated against it, and its waiting-time tail gives percentile SLAs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .erlang import erlang_c, offered_load

__all__ = [
    "DelaySystemMetrics",
    "mmn_delay_metrics",
    "wait_tail_probability",
    "wait_percentile",
]


@dataclass(frozen=True)
class DelaySystemMetrics:
    """Steady-state metrics of an M/M/n delay (Erlang C) system."""

    servers: int
    offered_load: float
    utilization: float
    probability_of_wait: float
    mean_queue_length: float
    mean_wait: float
    mean_response_time: float


def mmn_delay_metrics(
    arrival_rate: float, service_rate: float, servers: int
) -> DelaySystemMetrics:
    """Standard M/M/n results (stable only: ``rho < n``).

    Used by the simulated testbed to produce response-time curves (the
    paper's Fig. 9 Web panel reports average response time) on top of the
    loss-oriented headline model.
    """
    if servers <= 0:
        raise ValueError(f"servers must be positive, got {servers}")
    rho = offered_load(arrival_rate, service_rate)
    if rho >= servers:
        raise ValueError(
            f"M/M/n requires rho < n for stability (rho={rho}, n={servers})"
        )
    c = erlang_c(servers, rho)
    util = rho / servers
    mean_queue = c * rho / (servers - rho)
    mean_wait = c / (servers * service_rate - arrival_rate)
    return DelaySystemMetrics(
        servers=servers,
        offered_load=rho,
        utilization=util,
        probability_of_wait=c,
        mean_queue_length=mean_queue,
        mean_wait=mean_wait,
        mean_response_time=mean_wait + 1.0 / service_rate,
    )


def wait_tail_probability(
    arrival_rate: float, service_rate: float, servers: int, t: float
) -> float:
    """``P(W > t)`` for the M/M/n queue.

    The conditional wait given queueing is exponential with rate
    ``n*mu - lambda``, so ``P(W > t) = C(n, rho) * exp(-(n mu - lambda) t)``
    — the formula behind percentile response-time SLAs ("95% of requests
    wait under 50 ms"), which loss probabilities alone cannot express.
    """
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    metrics = mmn_delay_metrics(arrival_rate, service_rate, servers)
    rate = servers * service_rate - arrival_rate
    return metrics.probability_of_wait * math.exp(-rate * t)


def wait_percentile(
    arrival_rate: float, service_rate: float, servers: int, quantile: float
) -> float:
    """Smallest ``t`` with ``P(W <= t) >= quantile``.

    Returns 0 when the no-wait probability already covers the quantile;
    otherwise inverts the exponential tail in closed form.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {quantile}")
    metrics = mmn_delay_metrics(arrival_rate, service_rate, servers)
    c = metrics.probability_of_wait
    tail_target = 1.0 - quantile
    if c <= tail_target:
        return 0.0
    rate = servers * service_rate - arrival_rate
    return math.log(c / tail_target) / rate
