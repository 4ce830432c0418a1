"""Executable data-center case study: dedicated vs consolidated scenarios.

This is the simulated counterpart of the paper's Section IV experiments:
build both deployment scenarios from the same :class:`ModelInputs` the
analytic model consumes, run them as loss networks, and report measured
loss probabilities, utilizations, and metered energy — the quantities
Figs. 10–13 compare.

Scenario construction mirrors Fig. 3:

- **dedicated** — every service gets its own island of servers; requests of
  one service can never use another island's capacity (one loss network per
  service, native serving rates ``mu_ij``);
- **consolidated** — one pooled loss network over ``N`` shared machines;
  every request may be served anywhere (capability flowing), at the
  virtualized rates ``mu_ij * a_ij``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..cluster.pool import ServerPool
from ..cluster.power_meter import EnergyReading, PowerMeter, apply_platform_effect
from ..core.inputs import ModelInputs, ResourceKind, ServiceSpec
from ..core.power import ServerPowerModel
from .loss_network import LossNetwork, LossNetworkResult, ServiceTraffic

__all__ = ["ScenarioResult", "CaseStudyResult", "DataCenterSimulation"]


@dataclass(frozen=True)
class ScenarioResult:
    """Measured behaviour of one deployment scenario."""

    scenario: str
    servers: int
    per_service_loss: Mapping[str, float]
    per_service_loss_ci: Mapping[str, tuple[float, float]]
    per_service_throughput: Mapping[str, float]
    per_resource_utilization: Mapping[ResourceKind, float]
    energy: EnergyReading

    @property
    def worst_loss(self) -> float:
        return max(self.per_service_loss.values(), default=0.0)

    @property
    def total_throughput(self) -> float:
        return sum(self.per_service_throughput.values())


@dataclass(frozen=True)
class CaseStudyResult:
    """Both scenarios side by side (one Fig. 10/11-style comparison)."""

    dedicated: ScenarioResult
    consolidated: ScenarioResult

    @property
    def power_saving(self) -> float:
        """Fraction of total energy saved by consolidation (Fig. 12)."""
        de = self.dedicated.energy.total_energy
        if de == 0.0:
            return 0.0
        return (de - self.consolidated.energy.total_energy) / de

    @property
    def workload_power_saving(self) -> float:
        """Fraction of workload-attributed energy saved (Fig. 13)."""
        dw = self.dedicated.energy.workload_energy
        if dw == 0.0:
            return 0.0
        return (dw - self.consolidated.energy.workload_energy) / dw

    def utilization_improvement(self, resource: ResourceKind) -> float:
        """Measured ``U_N / U_M`` for one resource (the 1.7x claim)."""
        u_m = self.dedicated.per_resource_utilization.get(resource, 0.0)
        u_n = self.consolidated.per_resource_utilization.get(resource, 0.0)
        if u_m == 0.0:
            return float("inf") if u_n > 0.0 else 1.0
        return u_n / u_m


class DataCenterSimulation:
    """Build and run both scenarios from the analytic model's inputs.

    Parameters
    ----------
    inputs:
        The same services + loss target the analytic model sizes.
    power_model:
        Per-server linear power model for the metered fleets.
    xen_idle_factor, xen_workload_factor:
        Measured platform effects applied to the consolidated (Xen) fleet's
        power models (defaults reproduce the paper's 9% / 30%).
    """

    def __init__(
        self,
        inputs: ModelInputs,
        power_model: ServerPowerModel | None = None,
        xen_idle_factor: float = 0.91,
        xen_workload_factor: float = 0.70,
    ) -> None:
        self.inputs = inputs
        self.power_model = power_model or ServerPowerModel()
        self.xen_idle_factor = xen_idle_factor
        self.xen_workload_factor = xen_workload_factor

    # -- traffic construction ---------------------------------------------------

    def _native_traffic(self, service: ServiceSpec) -> ServiceTraffic:
        rates = {kind: service.mu(kind) for kind in service.service_rates}
        return ServiceTraffic.exponential(service.name, service.arrival_rate, rates)

    def _virtualized_traffic(self, service: ServiceSpec) -> ServiceTraffic:
        rates = {
            kind: service.effective_mu(kind) for kind in service.service_rates
        }
        return ServiceTraffic.exponential(service.name, service.arrival_rate, rates)

    # -- scenario runs -------------------------------------------------------------

    def run_dedicated(
        self,
        per_service_servers: Mapping[str, int],
        horizon: float,
        rng: np.random.Generator,
    ) -> ScenarioResult:
        """Run every service on its own island and aggregate the fleet view."""
        losses: dict[str, float] = {}
        cis: dict[str, tuple[float, float]] = {}
        throughput: dict[str, float] = {}
        total_servers = 0
        # Fleet utilization: per resource, busy-unit-seconds across islands
        # divided by fleet capacity (idle islands dilute it — that is the
        # waste the paper's Fig. 1(a) points at).
        busy_weighted: dict[ResourceKind, float] = {}
        for service in self.inputs.services:
            if service.name not in per_service_servers:
                raise KeyError(f"no server count given for service {service.name!r}")
            n_i = per_service_servers[service.name]
            if n_i < 1:
                raise ValueError(f"{service.name}: island needs >= 1 server, got {n_i}")
            total_servers += n_i
            network = LossNetwork(
                n_i,
                [self._native_traffic(service)],
                pool=f"dedicated:{service.name}",
                power_model=self.power_model,
            )
            result = network.run(horizon, rng)
            losses[service.name] = result.per_service_loss[service.name]
            cis[service.name] = result.per_service_loss_ci[service.name]
            accepted = (
                result.per_service_arrived[service.name]
                - result.per_service_blocked[service.name]
            )
            throughput[service.name] = accepted / horizon
            for kind, util in result.per_resource_utilization.items():
                busy_weighted[kind] = busy_weighted.get(kind, 0.0) + util * n_i
        fleet_util = {
            kind: busy / total_servers for kind, busy in busy_weighted.items()
        }
        energy = self._meter(total_servers, fleet_util, horizon, xen=False)
        return ScenarioResult(
            scenario="dedicated",
            servers=total_servers,
            per_service_loss=losses,
            per_service_loss_ci=cis,
            per_service_throughput=throughput,
            per_resource_utilization=fleet_util,
            energy=energy,
        )

    def run_consolidated(
        self, servers: int, horizon: float, rng: np.random.Generator
    ) -> ScenarioResult:
        """Run the pooled scenario on ``servers`` shared machines."""
        traffics = [self._virtualized_traffic(s) for s in self.inputs.services]
        network = LossNetwork(
            servers,
            traffics,
            pool="consolidated",
            power_model=self._xen_power_model(),
        )
        result = network.run(horizon, rng)
        throughput = {
            name: (result.per_service_arrived[name] - result.per_service_blocked[name])
            / horizon
            for name in result.per_service_arrived
        }
        energy = self._meter(
            servers, dict(result.per_resource_utilization), horizon, xen=True
        )
        return ScenarioResult(
            scenario="consolidated",
            servers=servers,
            per_service_loss=dict(result.per_service_loss),
            per_service_loss_ci=dict(result.per_service_loss_ci),
            per_service_throughput=throughput,
            per_resource_utilization=dict(result.per_resource_utilization),
            energy=energy,
        )

    def run_case_study(
        self,
        per_service_servers: Mapping[str, int],
        consolidated_servers: int,
        horizon: float,
        rng: np.random.Generator,
    ) -> CaseStudyResult:
        """Both scenarios under one RNG stream (paper Figs. 10–13 shape)."""
        dedicated = self.run_dedicated(per_service_servers, horizon, rng)
        consolidated = self.run_consolidated(consolidated_servers, horizon, rng)
        return CaseStudyResult(dedicated=dedicated, consolidated=consolidated)

    def _xen_power_model(self) -> ServerPowerModel:
        """Per-server model with the measured Xen platform effects applied:
        idle draw scaled by ``xen_idle_factor``, dynamic range by
        ``xen_workload_factor`` (same algebra as ``apply_platform_effect``).
        Drives the consolidated pool's instantaneous power telemetry."""
        base = self.power_model.base_watts * self.xen_idle_factor
        dynamic = (
            self.power_model.max_watts - self.power_model.base_watts
        ) * self.xen_workload_factor
        return ServerPowerModel(base, base + dynamic)

    # -- power metering ---------------------------------------------------------------

    def _meter(
        self,
        servers: int,
        fleet_util: Mapping[ResourceKind, float],
        horizon: float,
        xen: bool,
    ) -> EnergyReading:
        resources = set(fleet_util) | {ResourceKind.CPU}
        pool = ServerPool.homogeneous(
            servers,
            capacity={kind: 1.0 for kind in resources},
            power_model=self.power_model,
        )
        if xen:
            apply_platform_effect(
                pool,
                idle_factor=self.xen_idle_factor,
                dynamic_factor=self.xen_workload_factor,
            )
        meter = PowerMeter(pool)
        meter.sample(0.0)
        for kind, util in fleet_util.items():
            pool.apply_uniform_load(kind, min(util, 1.0))
        meter.sample(0.0)
        meter.sample(horizon)
        return meter.reading()
