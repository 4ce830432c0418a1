"""Per-service QoS targets (the paper's "several QoS requirements").

The published model uses one loss probability ``B`` for everything, but
its introduction frames services as arriving "with several types of QoS
metrics".  This module generalises the Fig. 4 algorithm to a per-service
loss target ``B_i``:

- **dedicated** — each island is sized against its own ``B_i`` (straight
  generalisation, islands are independent);
- **consolidated** — all services share each resource's pool, and by PASTA
  every arrival sees the *same* per-resource blocking; resource ``j`` must
  therefore satisfy the *strictest* target among the services that load it:
  ``B_j^req = min_i { B_i : rho_ij > 0 }``.

Both are sized by the model's own Fig. 4 pass,
:func:`repro.core.model._solve`; this module validates the targets and
reads off the result.

The premium a tight-SLA service imposes on the shared pool (versus sizing
everyone at the laxest target) is reported explicitly — the quantity an
operator needs when deciding whether gold-tier services should share
infrastructure with best-effort ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .inputs import ModelInputs, ResourceKind
from .model import _solve

__all__ = ["MultiQosSolution", "solve_with_targets"]


@dataclass(frozen=True)
class MultiQosSolution:
    """Sizing under per-service loss targets."""

    targets: Mapping[str, float]
    dedicated_per_service: Mapping[str, int]
    consolidated_per_resource: Mapping[ResourceKind, int]
    binding_service_per_resource: Mapping[ResourceKind, str]

    @property
    def dedicated_servers(self) -> int:
        return sum(self.dedicated_per_service.values())

    @property
    def consolidated_servers(self) -> int:
        return max(self.consolidated_per_resource.values(), default=0)

    def sla_premium(self, relaxed: "MultiQosSolution") -> int:
        """Extra consolidated machines versus a relaxed-targets sizing."""
        return self.consolidated_servers - relaxed.consolidated_servers


def solve_with_targets(
    inputs: ModelInputs,
    targets: Mapping[str, float],
    load_model: str = "paper",
) -> MultiQosSolution:
    """Generalised Fig. 4 with per-service loss targets.

    ``targets`` maps service name to its ``B_i``; services absent from the
    mapping use ``inputs.loss_probability``.  Unknown names are rejected.
    """
    known = {s.name for s in inputs.services}
    unknown = set(targets) - known
    if unknown:
        raise KeyError(f"targets for unknown services: {sorted(unknown)}")
    for name, b in targets.items():
        if not 0.0 < b < 1.0:
            raise ValueError(f"target for {name!r} must lie in (0, 1), got {b}")
    resolved = {
        s.name: targets.get(s.name, inputs.loss_probability)
        for s in inputs.services
    }
    solution, binding = _solve(inputs, load_model, resolved)
    return MultiQosSolution(
        targets=resolved,
        dedicated_per_service={d.service.name: d.servers for d in solution.dedicated},
        consolidated_per_resource=solution.consolidated_per_resource_servers,
        binding_service_per_resource={
            resource: binding[resource] if binding[resource] and load else "-"
            for resource, load in solution.consolidated_load.items()
        },
    )
