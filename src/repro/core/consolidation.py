"""High-level consolidation planning API.

:class:`ConsolidationPlanner` is the public front door of the library: give
it the services to host and the target loss probability, and it returns a
:class:`ConsolidationReport` combining everything the paper's model outputs
— server counts (M, N), utilization ratio, power ratio — plus optional
heterogeneous-inventory packing.  This is what a data-center designer would
run *before deploying anything*, which is exactly the planning gap the
paper positions itself to fill relative to reactive controllers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .heterogeneous import HeterogeneousPool
from .inputs import ModelInputs, ServiceSpec
from .model import ConsolidationSolution, UtilityAnalyticModel
from .power import PowerComparison, ServerPowerModel, power_comparison
from .utilization import UtilizationReport, utilization_report

__all__ = ["ConsolidationReport", "ConsolidationPlanner"]


@dataclass(frozen=True)
class ConsolidationReport:
    """Everything the utility analytic model predicts for one deployment."""

    solution: ConsolidationSolution
    utilization: UtilizationReport
    power: PowerComparison
    dedicated_packing: dict[str, int] | None = None
    consolidated_packing: dict[str, int] | None = None

    @property
    def dedicated_servers(self) -> int:
        return self.solution.dedicated_servers

    @property
    def consolidated_servers(self) -> int:
        return self.solution.consolidated_servers

    @property
    def infrastructure_saving(self) -> float:
        return self.solution.infrastructure_saving

    @property
    def power_saving(self) -> float:
        return self.power.saving

    @property
    def utilization_improvement(self) -> float:
        return self.utilization.bottleneck_improvement

    def to_text(self) -> str:
        """Human-readable multi-line summary (used by the examples)."""
        sol = self.solution
        lines = [
            "Utility analytic model — consolidation plan",
            f"  target loss probability B = {sol.inputs.loss_probability:g}",
            "",
            "  Dedicated scenario:",
        ]
        for sizing in sol.dedicated:
            lines.append(
                f"    {sizing.service.name:<12s} lambda={sizing.service.arrival_rate:>10.1f}"
                f"  servers={sizing.servers:>3d}  bottleneck={sizing.bottleneck}"
            )
        lines += [
            f"    {'TOTAL':<12s} M = {sol.dedicated_servers}",
            "",
            "  Consolidated scenario:",
            f"    N = {sol.consolidated_servers}"
            f"  bottleneck={sol.consolidated_bottleneck}",
            "",
            f"  Servers saved:            {sol.servers_saved}"
            f" ({100.0 * sol.infrastructure_saving:.1f}%)",
            f"  Utilization improvement:  {self.utilization_improvement:.2f}x",
            f"  Power saving:             {100.0 * self.power_saving:.1f}%"
            f"  (ratio P_M/P_N = {self.power.ratio:.2f})",
        ]
        if self.consolidated_packing is not None:
            lines.append(f"  Consolidated packing:     {self.consolidated_packing}")
        if self.dedicated_packing is not None:
            lines.append(f"  Dedicated packing:        {self.dedicated_packing}")
        return "\n".join(lines)


class ConsolidationPlanner:
    """Plan the scale of a VM-based data center before deployment.

    Parameters
    ----------
    power_model:
        Per-server linear power model; defaults to the testbed-like one.
    xen_idle_factor, xen_workload_factor:
        Optional measured platform effects (see :mod:`repro.core.power`);
        default 1.0 = the pure analytic model.
    inventory:
        Optional heterogeneous inventory; when provided the report includes
        concrete machine packings for both scenarios.
    """

    def __init__(
        self,
        power_model: ServerPowerModel | None = None,
        xen_idle_factor: float = 1.0,
        xen_workload_factor: float = 1.0,
        inventory: HeterogeneousPool | None = None,
    ) -> None:
        self.power_model = power_model or ServerPowerModel()
        self.xen_idle_factor = xen_idle_factor
        self.xen_workload_factor = xen_workload_factor
        self.inventory = inventory

    def plan(
        self, services: Sequence[ServiceSpec], loss_probability: float
    ) -> ConsolidationReport:
        """Run the full model and assemble the report."""
        return self.plan_inputs(ModelInputs(tuple(services), loss_probability))

    def plan_inputs(
        self, inputs: ModelInputs, load_model: str = "paper"
    ) -> ConsolidationReport:
        """:meth:`plan` for validated inputs, under the Eq. 4 reading
        ``load_model`` (:data:`~repro.core.model.LOAD_MODELS`)."""
        solution = UtilityAnalyticModel(inputs, load_model=load_model).solve()
        util = utilization_report(solution)
        power = power_comparison(
            solution,
            power_model=self.power_model,
            xen_idle_factor=self.xen_idle_factor,
            xen_workload_factor=self.xen_workload_factor,
            utilization=util,
        )
        dedicated_packing = consolidated_packing = None
        if self.inventory is not None:
            dedicated_packing = self.inventory.pack(solution.dedicated_servers)
            consolidated_packing = self.inventory.pack(solution.consolidated_servers)
        return ConsolidationReport(
            solution=solution,
            utilization=util,
            power=power,
            dedicated_packing=dedicated_packing,
            consolidated_packing=consolidated_packing,
        )

    def sweep_workload_scale(
        self,
        services: Sequence[ServiceSpec],
        loss_probability: float,
        factors: Sequence[float],
    ) -> list[ConsolidationReport]:
        """Plan across workload intensities (capacity-growth what-ifs)."""
        reports = []
        for f in factors:
            scaled = [s.with_arrival_rate(s.arrival_rate * f) for s in services]
            reports.append(self.plan(scaled, loss_probability))
        return reports
