"""Simulated virtualization substrate (Xen + Rainbow stand-in).

- :mod:`repro.virtualization.impact` — impact-factor curves ``a(v)`` with
  the paper's published fits and re-fitting from measurements;
- :mod:`repro.virtualization.vm` — guest-domain description (vCPUs,
  pinning, memory, weight);
- :mod:`repro.virtualization.hypervisor` — credit-scheduler capacity model
  with Dom0 reservation, pinning effects and per-domain I/O overhead;
- :mod:`repro.virtualization.rainbow` — on-demand resource flowing
  controllers, from static partitioning to the model's ideal flow.
"""

from .hypervisor import (
    FLOATING_EFFICIENCY,
    CpuAllocation,
    HostSpec,
    Hypervisor,
)
from .impact import (
    DB_CPU_IMPACT,
    DB_CPU_IMPACT_LITERAL,
    WEB_CPU_IMPACT,
    WEB_DISK_IO_IMPACT,
    ConstantImpactModel,
    ImpactModel,
    LinearImpactModel,
    SaturatingImpactModel,
    fit_linear_impact,
    fit_saturating_impact,
)
from .rainbow import (
    FlowController,
    IdealFlow,
    PredictiveFlow,
    PriorityFlow,
    ProportionalFlow,
    StaticPartition,
)
from .placement import (
    PlacementPlan,
    VmDemand,
    best_fit_decreasing,
    first_fit_decreasing,
    migration_plan,
)
from .vm import VcpuPlacement, VirtualMachine

__all__ = [
    "ImpactModel",
    "LinearImpactModel",
    "SaturatingImpactModel",
    "ConstantImpactModel",
    "WEB_DISK_IO_IMPACT",
    "WEB_CPU_IMPACT",
    "DB_CPU_IMPACT",
    "DB_CPU_IMPACT_LITERAL",
    "fit_linear_impact",
    "fit_saturating_impact",
    "VcpuPlacement",
    "VirtualMachine",
    "HostSpec",
    "Hypervisor",
    "CpuAllocation",
    "FLOATING_EFFICIENCY",
    "FlowController",
    "StaticPartition",
    "ProportionalFlow",
    "PriorityFlow",
    "IdealFlow",
    "PredictiveFlow",
    "VmDemand",
    "PlacementPlan",
    "first_fit_decreasing",
    "best_fit_decreasing",
    "migration_plan",
]
