"""Applications of the utility analytic model (paper Section III.B.4).

The model is not only a sizing tool; fixing the server count and comparing
achieved loss probabilities turns it into a yardstick:

1. **Evaluating on-demand resource allocation algorithms** — give the
   consolidated pool exactly as many machines as the dedicated fleet
   (``M = N``) and compare throughputs ``(1 - B)``.  The ratio
   ``(1-B_consolidated)/(1-B_dedicated)`` is the *optimal* QoS improvement
   any resource-flowing algorithm could deliver (the model assumes perfect,
   zero-overhead flowing); a real algorithm is judged by how closely it
   approaches this bound.

2. **Evaluating virtualization products** — additionally force every impact
   factor ``a_ij = 1``.  The resulting bound is what an *ideal* hypervisor
   (zero overhead) would permit; the gap between bound (1) and bound (2)
   is the QoS price of the hypervisor itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..queueing.erlang import erlang_b
from .inputs import ModelInputs
from .model import UtilityAnalyticModel

__all__ = [
    "QosBound",
    "allocation_algorithm_bound",
    "virtualization_bound",
    "allocation_algorithm_score",
]


@dataclass(frozen=True)
class QosBound:
    """Throughput bound produced by an equal-server-count comparison."""

    servers: int
    dedicated_loss: float
    consolidated_loss: float

    @property
    def dedicated_goodput(self) -> float:
        """``1 - B`` in the dedicated fleet."""
        return 1.0 - self.dedicated_loss

    @property
    def consolidated_goodput(self) -> float:
        return 1.0 - self.consolidated_loss

    @property
    def improvement(self) -> float:
        """Optimal QoS (throughput) improvement ratio.

        ``(1 - B_N) / (1 - B_M)`` at equal server counts: > 1 means pooling
        capability across services can serve a larger request fraction than
        static dedication ever could.
        """
        if self.dedicated_goodput == 0.0:
            return float("inf") if self.consolidated_goodput > 0.0 else 1.0
        return self.consolidated_goodput / self.dedicated_goodput


def _equal_server_bound(inputs: ModelInputs, servers: int | None) -> QosBound:
    model = UtilityAnalyticModel(inputs)
    solution = model.solve()
    if servers is None:
        # The interesting regime for "let M equal N" is the *consolidated*
        # sizing: giving the dedicated islands only N machines exposes how
        # much QoS capability flowing buys back.  (At the dedicated M both
        # deployments block negligibly and the ratio degenerates to ~1.)
        servers = solution.consolidated_servers
    if servers <= 0:
        raise ValueError(f"servers must be positive, got {servers}")
    # Dedicated: split the fleet exactly as the Fig. 4 sizing would, i.e.
    # each service keeps its own island.  With `servers` total we allocate
    # proportionally to the per-service requirement, preserving integrality.
    m_total = solution.dedicated_servers
    worst_dedicated = 0.0
    for sizing in solution.dedicated:
        if m_total > 0:
            share = max(1, round(servers * sizing.servers / m_total))
        else:
            share = servers
        for resource, rho in sizing.per_resource_load.items():
            worst_dedicated = max(worst_dedicated, erlang_b(share, rho))
    consolidated = model.blocking_with_servers(servers, consolidated=True)
    return QosBound(
        servers=servers,
        dedicated_loss=worst_dedicated,
        consolidated_loss=consolidated,
    )


def allocation_algorithm_bound(
    inputs: ModelInputs, servers: int | None = None
) -> QosBound:
    """Application (1): bound for on-demand resource allocation algorithms.

    Uses the *measured* impact factors (virtualization overhead included):
    the bound reflects what perfect resource flowing achieves on the real
    hypervisor.  ``servers`` defaults to the model's own ``M``.
    """
    return _equal_server_bound(inputs, servers)


def virtualization_bound(inputs: ModelInputs, servers: int | None = None) -> QosBound:
    """Application (2): bound for virtualization products.

    All impact factors are forced to 1 — the consolidated pool behaves like
    native Linux with perfect capability flowing.  The returned improvement
    is the theoretical ceiling for any hypervisor.
    """
    return _equal_server_bound(inputs.without_virtualization_overhead(), servers)


def allocation_algorithm_score(
    measured_goodput_ratio: float, inputs: ModelInputs, servers: int | None = None
) -> float:
    """Score a real resource-flowing algorithm against the optimal bound.

    ``measured_goodput_ratio`` is the observed
    ``(1-B_consolidated)/(1-B_dedicated)`` of the algorithm under test.
    Returns the fraction of the model's optimal improvement the algorithm
    realises (1.0 = optimal; the paper: "the more close ... the better this
    resource allocation algorithm is").  Values slightly above 1 are
    clipped — they indicate measurement noise, not super-optimality.
    """
    if measured_goodput_ratio <= 0.0:
        raise ValueError(
            f"goodput ratio must be positive, got {measured_goodput_ratio}"
        )
    bound = allocation_algorithm_bound(inputs, servers)
    optimal = bound.improvement
    if optimal <= 1.0:
        # Consolidation offers no headroom; any non-degrading algorithm scores 1.
        return 1.0 if measured_goodput_ratio >= 1.0 else measured_goodput_ratio
    score = (measured_goodput_ratio - 1.0) / (optimal - 1.0)
    return min(1.0, max(0.0, score))
