"""Closed-form performance metrics for the M/M/n delay system.

The paper's model treats each resource of the pooled data center as an
``n``-server Erlang loss system.  The delay (Erlang C) variant packaged
here backs the sanity checks on response time: the DES delay simulation
is validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .erlang import erlang_c, offered_load

__all__ = ["DelaySystemMetrics", "mmn_delay_metrics"]


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
