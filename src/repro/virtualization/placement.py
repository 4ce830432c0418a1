"""VM-to-host placement: the bin-packing view of consolidation.

The paper's related work consolidates by *packing VMs onto hosts* (ReCon,
Entropy); the paper itself consolidates by *pooling capability*.  This
module implements the packing view so the two can be compared:

- :func:`first_fit_decreasing` / :func:`best_fit_decreasing` — classic
  vector bin packing of VM demand vectors onto identical hosts;
- :class:`PlacementPlan` — the resulting assignment with per-host load;
- :func:`migration_plan` — the minimal move set turning one placement into
  another (what an Entropy-style reconfigurator would execute), with the
  migration count as its cost.

The ablation bench uses these to show that packing *static per-VM
reservations* needs more hosts than the model's pooled sizing — the
difference is exactly the statistical-multiplexing gain the Erlang
analysis captures and reservations forfeit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.inputs import ResourceKind

__all__ = [
    "VmDemand",
    "PlacementPlan",
    "first_fit_decreasing",
    "best_fit_decreasing",
    "migration_plan",
]


@dataclass(frozen=True)
class VmDemand:
    """One VM's (reserved) demand vector in normalized host units."""

    name: str
    demands: Mapping[ResourceKind, float]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("VM name must be non-empty")
        demands = dict(self.demands)
        if not demands:
            raise ValueError(f"{self.name}: at least one resource demand required")
        for kind, d in demands.items():
            if not isinstance(kind, ResourceKind):
                raise TypeError(f"{self.name}: demand keys must be ResourceKind")
            if d < 0.0:
                raise ValueError(f"{self.name}: demand[{kind}] must be >= 0, got {d}")
            if d > 1.0:
                raise ValueError(
                    f"{self.name}: demand[{kind}] = {d} exceeds one host; "
                    "split the VM or scale the host"
                )
        object.__setattr__(self, "demands", demands)

    @property
    def size(self) -> float:
        """Scalar used for the decreasing sort: the dominant dimension."""
        return max(self.demands.values())


@dataclass
class PlacementPlan:
    """An assignment of VMs to hosts (host index -> VM names)."""

    assignments: dict[str, int] = field(default_factory=dict)
    host_loads: list[dict[ResourceKind, float]] = field(default_factory=list)

    @property
    def hosts_used(self) -> int:
        return len(self.host_loads)

    def vms_on(self, host: int) -> list[str]:
        return [name for name, h in self.assignments.items() if h == host]

    def validate(self) -> None:
        """Assert no host is overcommitted on any dimension."""
        for i, load in enumerate(self.host_loads):
            for kind, value in load.items():
                if value > 1.0 + 1e-9:
                    raise AssertionError(
                        f"host {i} overcommitted on {kind}: {value:.3f}"
                    )

    def copy(self) -> "PlacementPlan":
        """Independent mutable copy (assignments and per-host loads)."""
        return PlacementPlan(
            assignments=dict(self.assignments),
            host_loads=[dict(load) for load in self.host_loads],
        )

    def remove(self, vm: "VmDemand") -> int:
        """Unassign ``vm``, releasing its demand; returns the host it left."""
        host = self.assignments.pop(vm.name)
        load = self.host_loads[host]
        for kind, d in vm.demands.items():
            # Clamp accumulated float error so repeated place/remove cycles
            # cannot drift a nominally-empty host below zero.
            load[kind] = max(load.get(kind, 0.0) - d, 0.0)
        return host


def _fits(load: Mapping[ResourceKind, float], vm: VmDemand) -> bool:
    return all(
        load.get(kind, 0.0) + d <= 1.0 + 1e-12 for kind, d in vm.demands.items()
    )


def _place(plan: PlacementPlan, host: int, vm: VmDemand) -> None:
    plan.assignments[vm.name] = host
    load = plan.host_loads[host]
    for kind, d in vm.demands.items():
        load[kind] = load.get(kind, 0.0) + d


def _sorted_vms(vms: Sequence[VmDemand]) -> list[VmDemand]:
    names = [vm.name for vm in vms]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate VM names: {names}")
    # Stable sort: ties keep input order, keeping plans deterministic.
    return sorted(vms, key=lambda vm: vm.size, reverse=True)


def first_fit_decreasing(vms: Sequence[VmDemand]) -> PlacementPlan:
    """FFD vector packing: biggest VM first, first host it fits on.

    11/9·OPT+1 on one dimension; the standard consolidation baseline.
    """
    plan = PlacementPlan()
    for vm in _sorted_vms(vms):
        for host in range(plan.hosts_used):
            if _fits(plan.host_loads[host], vm):
                _place(plan, host, vm)
                break
        else:
            plan.host_loads.append({})
            _place(plan, plan.hosts_used - 1, vm)
    plan.validate()
    return plan


def best_fit_decreasing(
    vms: Sequence[VmDemand],
    *,
    into: PlacementPlan | None = None,
    allowed_hosts: Sequence[int] | None = None,
) -> PlacementPlan:
    """BFD: place each VM on the feasible host with least remaining room.

    Tighter packings on heterogeneous demand mixes; same worst case.

    Two keyword extensions serve incremental re-consolidation (the dynamic
    control loop): ``into`` starts from a *copy* of an existing plan
    instead of an empty one, and ``allowed_hosts`` restricts candidate
    hosts to the given indices — in that mode no new hosts are opened and
    a VM that fits nowhere raises ``ValueError`` (the caller decides
    whether to abort the shrink or boot capacity).  With both omitted the
    behaviour is the classic from-scratch packing.
    """
    plan = PlacementPlan() if into is None else into.copy()
    taken = set(plan.assignments)
    for vm in _sorted_vms(vms):
        if vm.name in taken:
            raise ValueError(f"VM {vm.name!r} is already placed in the base plan")
    for vm in _sorted_vms(vms):
        candidates = (
            range(plan.hosts_used) if allowed_hosts is None else allowed_hosts
        )
        best_host = -1
        best_room = float("inf")
        for host in candidates:
            if host >= plan.hosts_used:
                raise ValueError(
                    f"allowed host {host} does not exist in the base plan"
                )
            load = plan.host_loads[host]
            if not _fits(load, vm):
                continue
            room = sum(1.0 - load.get(kind, 0.0) for kind in vm.demands)
            if room < best_room:
                best_room = room
                best_host = host
        if best_host < 0:
            if allowed_hosts is not None:
                raise ValueError(
                    f"no allowed host has room for VM {vm.name!r}"
                )
            plan.host_loads.append({})
            best_host = plan.hosts_used - 1
        _place(plan, best_host, vm)
    plan.validate()
    return plan


@dataclass(frozen=True)
class Migration:
    """One live-migration step."""

    vm: str
    source: int
    target: int


def migration_plan(
    current: PlacementPlan, target: PlacementPlan
) -> list[Migration]:
    """Moves converting ``current`` into ``target`` (Entropy's cost metric).

    Both plans must place the same VM set.  Hosts are matched by index;
    a VM whose host index differs migrates once (live migration moves the
    VM directly; no intermediate hops needed when capacities allow — we
    report the move set, not its schedule).
    """
    if set(current.assignments) != set(target.assignments):
        raise ValueError("plans place different VM sets")
    moves = []
    for name, src in current.assignments.items():
        dst = target.assignments[name]
        if src != dst:
            moves.append(Migration(vm=name, source=src, target=dst))
    return moves

