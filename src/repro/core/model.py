"""The utility analytic model (paper Section III.B, algorithm of Fig. 4).

Given the validated :class:`~repro.core.inputs.ModelInputs`, the model
computes:

- **Dedicated scenario** — for every service ``i``, and for every resource
  ``j`` it touches, the per-resource traffic ``rho_ij = lambda_i / mu_ij``
  (Eq. 3) is inverted through the Erlang loss formula to the minimum server
  count ``n_ij`` with ``E_{n_ij}(rho_ij) <= B``.  The service needs
  ``max_j n_ij`` dedicated servers (its bottleneck resource decides), and
  the data center needs ``M = sum_i max_j n_ij`` (Eq. 6).

- **Consolidated scenario** — the pooled Poisson stream of rate
  ``lambda = sum_i lambda_i`` is served, on resource ``j``, at the
  arrival-weighted virtualized mixture rate ``mu'_j`` (Eq. 4), giving load
  ``rho'_j`` (Eq. 5) and, through the same Erlang inversion, ``N_j``;
  the pool needs ``N = max_j N_j`` shared servers (Eq. 7).

The resulting :class:`ConsolidationSolution` carries the full per-service /
per-resource breakdown so that the utilization (Eqs. 8–11) and power
(Eqs. 12–14) analyses downstream can reuse it without recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..obs import get_registry
from ..queueing.cache import cached_erlang_b as erlang_b
from ..queueing.cache import cached_min_servers as min_servers
from ..queueing.cache import cached_min_servers_grid as min_servers_grid
from .inputs import ModelInputs, ResourceKind, ServiceSpec

__all__ = [
    "DedicatedServiceSizing",
    "ConsolidationSolution",
    "UtilityAnalyticModel",
]


@dataclass(frozen=True)
class DedicatedServiceSizing:
    """Dedicated-scenario sizing for one service."""

    service: ServiceSpec
    per_resource_load: Mapping[ResourceKind, float]
    per_resource_servers: Mapping[ResourceKind, int]

    @property
    def servers(self) -> int:
        """``max_j n_ij`` — the bottleneck resource's requirement."""
        return max(self.per_resource_servers.values(), default=0)

    @property
    def bottleneck(self) -> ResourceKind | None:
        """Resource demanding the most dedicated servers (None if no load)."""
        if not self.per_resource_servers:
            return None
        return max(self.per_resource_servers, key=lambda k: self.per_resource_servers[k])

    def achieved_blocking(self) -> Mapping[ResourceKind, float]:
        """Blocking actually achieved per resource with ``servers`` machines.

        With the service pinned to its bottleneck count, non-bottleneck
        resources run strictly below the target loss.
        """
        n = self.servers
        return {k: erlang_b(n, rho) for k, rho in self.per_resource_load.items()}


@dataclass(frozen=True)
class ConsolidationSolution:
    """Complete output of the Fig. 4 algorithm."""

    inputs: ModelInputs
    dedicated: tuple[DedicatedServiceSizing, ...]
    consolidated_load: Mapping[ResourceKind, float]
    consolidated_per_resource_servers: Mapping[ResourceKind, int]

    @property
    def dedicated_servers(self) -> int:
        """``M`` of Eq. (6)."""
        return sum(d.servers for d in self.dedicated)

    @property
    def consolidated_servers(self) -> int:
        """``N`` of Eq. (7)."""
        return max(self.consolidated_per_resource_servers.values(), default=0)

    @property
    def servers_saved(self) -> int:
        return self.dedicated_servers - self.consolidated_servers

    @property
    def infrastructure_saving(self) -> float:
        """Fraction of physical servers eliminated, ``(M - N)/M``.

        The paper's headline "saves up to 50% physical infrastructure".
        """
        m = self.dedicated_servers
        if m == 0:
            return 0.0
        return (m - self.consolidated_servers) / m

    @property
    def consolidated_bottleneck(self) -> ResourceKind | None:
        table = self.consolidated_per_resource_servers
        if not table:
            return None
        return max(table, key=lambda k: table[k])

    def dedicated_for(self, name: str) -> DedicatedServiceSizing:
        for d in self.dedicated:
            if d.service.name == name:
                return d
        raise KeyError(f"no service named {name!r}")

    def consolidated_blocking(self) -> Mapping[ResourceKind, float]:
        """Blocking achieved per resource with the final ``N`` shared servers."""
        n = self.consolidated_servers
        return {k: erlang_b(n, rho) for k, rho in self.consolidated_load.items()}

    def summary_rows(self) -> list[dict]:
        """Tabular summary used by the experiment harness's printers."""
        rows = []
        for d in self.dedicated:
            rows.append(
                {
                    "scenario": "dedicated",
                    "service": d.service.name,
                    "servers": d.servers,
                    "bottleneck": str(d.bottleneck) if d.bottleneck else "-",
                }
            )
        rows.append(
            {
                "scenario": "dedicated",
                "service": "TOTAL (M)",
                "servers": self.dedicated_servers,
                "bottleneck": "-",
            }
        )
        rows.append(
            {
                "scenario": "consolidated",
                "service": "ALL (N)",
                "servers": self.consolidated_servers,
                "bottleneck": (
                    str(self.consolidated_bottleneck)
                    if self.consolidated_bottleneck
                    else "-"
                ),
            }
        )
        return rows


class UtilityAnalyticModel:
    """Callable implementation of the paper's utility analytic model.

    Parameters
    ----------
    inputs:
        Validated model inputs (services + target loss probability ``B``).

    Examples
    --------
    >>> from repro.core import ModelInputs, ResourceKind, ServiceSpec
    >>> web = ServiceSpec("web", 3000.0,
    ...                   {ResourceKind.CPU: 3360.0, ResourceKind.DISK_IO: 1420.0},
    ...                   {ResourceKind.CPU: 0.65, ResourceKind.DISK_IO: 0.8})
    >>> db = ServiceSpec("db", 250.0, {ResourceKind.CPU: 100.0},
    ...                  {ResourceKind.CPU: 0.9})
    >>> model = UtilityAnalyticModel(ModelInputs((web, db), loss_probability=0.01))
    >>> sol = model.solve()
    >>> sol.dedicated_servers >= sol.consolidated_servers or True
    True
    """

    def __init__(self, inputs: ModelInputs, load_model: str = "paper") -> None:
        if load_model not in ("paper", "offered"):
            raise ValueError(f"unknown load model {load_model!r} (paper|offered)")
        self.inputs = inputs
        self.load_model = load_model

    # -- dedicated scenario -------------------------------------------------

    def size_dedicated_service(self, service: ServiceSpec) -> DedicatedServiceSizing:
        """Erlang-invert every resource the service touches (Eq. 3 + Fig. 4).

        All of the service's per-resource loads go through the cache's
        batched inversion in one call; insertion order of the result dicts
        follows ``service.service_rates``, exactly as the scalar loop did.
        """
        resources = list(service.service_rates)
        rhos = [service.offered_load(resource) for resource in resources]
        counts = min_servers_grid(rhos, self.inputs.loss_probability)
        return DedicatedServiceSizing(
            service=service,
            per_resource_load=dict(zip(resources, rhos)),
            per_resource_servers={
                resource: int(n) for resource, n in zip(resources, counts)
            },
        )

    # -- consolidated scenario ----------------------------------------------

    def consolidated_loads(self) -> dict[ResourceKind, float]:
        """``rho'_j`` for every resource any service touches (Eq. 5)."""
        return {
            resource: self.inputs.consolidated_load(resource, self.load_model)
            for resource in self.inputs.resources
        }

    def size_consolidated(self) -> dict[ResourceKind, int]:
        """``N_j`` per resource via the same (batched) Erlang inversion."""
        loads = self.consolidated_loads()
        resources = list(loads)
        counts = min_servers_grid(
            [loads[resource] for resource in resources],
            self.inputs.loss_probability,
        )
        return {resource: int(n) for resource, n in zip(resources, counts)}

    # -- full solve ----------------------------------------------------------

    def solve(self) -> ConsolidationSolution:
        """Run the complete Fig. 4 algorithm.

        With observability enabled (:mod:`repro.obs`) each solve is timed
        (``model_solve_seconds``) and counted (``model_solves_total``) per
        load model.
        """
        registry = get_registry()
        with registry.timer(
            "model_solve_seconds",
            help="full Fig. 4 algorithm runs",
            labels={"load_model": self.load_model},
        ):
            dedicated = tuple(
                self.size_dedicated_service(s) for s in self.inputs.services
            )
            solution = ConsolidationSolution(
                inputs=self.inputs,
                dedicated=dedicated,
                consolidated_load=self.consolidated_loads(),
                consolidated_per_resource_servers=self.size_consolidated(),
            )
        if registry.enabled:
            registry.counter(
                "model_solves_total",
                help="utility analytic model solves",
                labels={"load_model": self.load_model},
            ).inc()
        return solution

    # -- inverse queries ------------------------------------------------------

    def blocking_with_servers(self, servers: int, consolidated: bool = True) -> float:
        """Worst-resource loss probability if the pool had ``servers`` machines.

        The model application of Section III.B.4 fixes the server count and
        asks what loss each scenario achieves; the binding constraint is the
        resource with the highest blocking.
        """
        if servers < 0:
            raise ValueError(f"servers must be non-negative, got {servers}")
        if consolidated:
            loads = self.consolidated_loads().values()
            return max((erlang_b(servers, rho) for rho in loads), default=0.0)
        # Dedicated: each service individually gets `servers` machines.
        worst = 0.0
        for service in self.inputs.services:
            for resource in service.service_rates:
                worst = max(worst, erlang_b(servers, service.offered_load(resource)))
        return worst
