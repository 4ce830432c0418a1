"""Fluid (control-period) simulation of on-demand resource flowing.

The loss-network simulation treats capacity as indivisible servers; this
complementary model treats it as fluid, which is the natural frame for the
Rainbow controllers: each control period the controller divides the pooled
capacity among services according to their instantaneous demand, and
whatever demand exceeds the grant is lost (an Internet request that cannot
be served within its period times out).

Running the same demand trace under different controllers quantifies how
close each comes to the analytic model's ideal-flowing assumption — the
model's first application (Section III.B.4(1)).  Demands are expressed in
normalized-server units of work per period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..virtualization.rainbow import FlowController

__all__ = ["FluidRunResult", "simulate_flow_control"]


@dataclass(frozen=True)
class FluidRunResult:
    """Aggregate outcome of one controller over one demand trace."""

    controller: str
    periods: int
    offered_work: Mapping[str, float]
    served_work: Mapping[str, float]

    @property
    def total_offered(self) -> float:
        return sum(self.offered_work.values())

    @property
    def total_served(self) -> float:
        return sum(self.served_work.values())

    @property
    def goodput_fraction(self) -> float:
        """Served / offered — the fluid analogue of ``1 - B``."""
        if self.total_offered == 0.0:
            return 1.0
        return self.total_served / self.total_offered

    @property
    def loss_fraction(self) -> float:
        return 1.0 - self.goodput_fraction

    def service_goodput(self, name: str) -> float:
        offered = self.offered_work[name]
        if offered == 0.0:
            return 1.0
        return self.served_work[name] / offered


def simulate_flow_control(
    controller: FlowController,
    demands: Mapping[str, np.ndarray],
    capacity: float,
) -> FluidRunResult:
    """Run ``controller`` over a per-period demand trace.

    ``demands[name]`` is a 1-D array of work offered by that service in each
    control period; all arrays must share a length.  ``capacity`` is the
    pooled capacity available per period.  Work not served within its
    period is lost — there is no carry-over queue, matching the loss-system
    (rather than delay-system) framing of the paper.
    """
    if capacity < 0.0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    if not demands:
        raise ValueError("at least one service demand trace required")
    lengths = {name: len(np.atleast_1d(trace)) for name, trace in demands.items()}
    periods = next(iter(lengths.values()))
    if any(l != periods for l in lengths.values()):
        raise ValueError(f"demand traces differ in length: {lengths}")
    traces = {name: np.asarray(trace, dtype=float) for name, trace in demands.items()}
    for name, trace in traces.items():
        if (trace < 0).any():
            raise ValueError(f"{name}: demands must be non-negative")

    offered = {name: float(trace.sum()) for name, trace in traces.items()}
    served = {name: 0.0 for name in traces}
    previous_shares: dict[str, float] | None = None
    for k in range(periods):
        period_demand = {name: float(traces[name][k]) for name in traces}
        shares = controller.shares(period_demand, capacity)
        changed = previous_shares is not None and any(
            abs(shares.get(n, 0.0) - previous_shares.get(n, 0.0)) > 1e-12
            for n in set(shares) | set(previous_shares)
        )
        effective = controller.effective_capacity(capacity, changed)
        scale = effective / capacity if capacity > 0.0 else 0.0
        for name in traces:
            grant = shares.get(name, 0.0) * scale
            served[name] += min(period_demand[name], grant)
        previous_shares = shares
    return FluidRunResult(
        controller=type(controller).__name__,
        periods=periods,
        offered_work=offered,
        served_work=served,
    )
