"""Multi-period (diurnal) capacity planning on top of the analytic model.

The paper plans one static scale; its related-work section surveys systems
that additionally power servers off under light load.  This module unifies
the two: given per-service workload *profiles* over a planning horizon,
solve the utility analytic model per period and emit an on/off schedule —
model-guided proactive shrinking rather than reactive control.

Real machines cannot flap, so the schedule supports:

- **hysteresis** — only power down after the lower demand has persisted
  for ``hold_periods`` periods (powering up is always immediate: QoS
  first).  The hold is an :class:`~repro.obs.alarms.AlarmState` — the
  repo's one anti-flap state machine — shared with the reactive
  controller through :meth:`DynamicCapacityPlanner.hold_state`;
- **switching energy** — booting a machine costs ``boot_energy`` joules,
  charged against the savings so the planner can report *net* energy.

Outputs per period: servers needed, servers on, utilization, energy; plus
horizon totals compared against the never-shrink baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..obs.alarms import AlarmRule, AlarmState
from .inputs import ModelInputs, ResourceKind, ServiceSpec
from .model import UtilityAnalyticModel
from .power import ServerPowerModel

__all__ = ["PeriodPlan", "DynamicPlan", "DynamicCapacityPlanner"]


@dataclass(frozen=True)
class PeriodPlan:
    """One planning period's decision and accounting."""

    period: int
    arrival_rates: Mapping[str, float]
    servers_needed: int
    servers_on: int
    utilization: float
    energy: float
    booted: int
    shut_down: int


@dataclass(frozen=True)
class DynamicPlan:
    """Complete schedule over the horizon."""

    periods: tuple[PeriodPlan, ...]
    period_length: float
    peak_servers: int
    total_energy: float
    static_energy: float
    boot_energy_spent: float

    @property
    def energy_saving(self) -> float:
        """Net energy saved versus keeping the peak fleet on throughout."""
        if self.static_energy == 0.0:
            return 0.0
        return (self.static_energy - self.total_energy) / self.static_energy

    @property
    def mean_servers_on(self) -> float:
        if not self.periods:
            return 0.0
        return sum(p.servers_on for p in self.periods) / len(self.periods)

    def rows(self) -> list[dict]:
        """Tabular view for the report renderers."""
        return [
            {
                "period": p.period,
                "needed": p.servers_needed,
                "on": p.servers_on,
                "utilization": round(p.utilization, 3),
                "energy_kJ": round(p.energy / 1e3, 2),
            }
            for p in self.periods
        ]


class DynamicCapacityPlanner:
    """Plan an on/off schedule from per-period service workloads.

    Parameters
    ----------
    services:
        Service templates; per-period arrival rates replace their
        ``arrival_rate``.
    loss_probability:
        QoS target ``B`` enforced in every period.
    power_model:
        Per-server linear power model.
    period_length:
        Seconds per planning period (3600 for hourly planning).
    hold_periods:
        Consecutive periods a lower requirement must persist before any
        machine is powered down (hysteresis; 0 = immediate shrinking).
    boot_energy:
        Joules charged per machine power-on (amortised boot cost).
    min_servers:
        Floor on powered-on machines (redundancy / management nodes).
    load_model:
        Passed through to :class:`UtilityAnalyticModel` ("paper" or the
        conservative "offered").
    """

    def __init__(
        self,
        services: Sequence[ServiceSpec],
        loss_probability: float,
        power_model: ServerPowerModel | None = None,
        period_length: float = 3600.0,
        hold_periods: int = 1,
        boot_energy: float = 30_000.0,
        min_servers: int = 1,
        load_model: str = "paper",
    ) -> None:
        if not services:
            raise ValueError("at least one service required")
        if period_length <= 0.0:
            raise ValueError(f"period length must be positive, got {period_length}")
        if hold_periods < 0:
            raise ValueError(f"hold periods must be >= 0, got {hold_periods}")
        if boot_energy < 0.0:
            raise ValueError(f"boot energy must be >= 0, got {boot_energy}")
        if min_servers < 1:
            raise ValueError(f"min servers must be >= 1, got {min_servers}")
        self.services = tuple(services)
        self.loss_probability = loss_probability
        self.power_model = power_model or ServerPowerModel()
        self.period_length = period_length
        self.hold_periods = hold_periods
        self.boot_energy = boot_energy
        self.min_servers = min_servers
        self.load_model = load_model

    def hold_state(self) -> AlarmState:
        """Fresh shrink-hold state, stepped once per period with
        ``servers_on - target``.

        It breaches while the target is below the powered fleet and fires
        once that has held for more than ``hold_periods`` consecutive
        periods (debounce ``hold_periods + 1``); any period at or above
        the fleet clears it.  Callers :meth:`~AlarmState.reset` it after
        each shrink attempt.
        """
        return AlarmState(
            AlarmRule(
                "shrink-hold", "servers_surplus", "overload",
                threshold=1.0, debounce=self.hold_periods + 1,
            )
        )

    # -- single period -------------------------------------------------------

    def servers_needed(self, arrival_rates: Mapping[str, float]) -> int:
        """Consolidated servers the model demands for one period's rates."""
        inputs = self._inputs_for(arrival_rates)
        solution = UtilityAnalyticModel(inputs, load_model=self.load_model).solve()
        return max(self.min_servers, solution.consolidated_servers)

    def offered_load(self, arrival_rates: Mapping[str, float]) -> float:
        """Worst-resource consolidated offered load for one period's rates.

        The quasi-stationary Erlang load the sizing in
        :meth:`servers_needed` guards against; the control loop uses it as
        the fluid-mode busy-server proxy.
        """
        inputs = self._inputs_for(arrival_rates)
        return max(
            inputs.consolidated_load(resource, "offered")
            for resource in inputs.resources
        )

    def _inputs_for(self, arrival_rates: Mapping[str, float]) -> ModelInputs:
        missing = {s.name for s in self.services} - set(arrival_rates)
        if missing:
            raise KeyError(f"missing arrival rates for services: {sorted(missing)}")
        scaled = tuple(
            s.with_arrival_rate(arrival_rates[s.name]) for s in self.services
        )
        return ModelInputs(scaled, self.loss_probability)

    def _period_utilization(
        self, arrival_rates: Mapping[str, float], servers_on: int
    ) -> float:
        inputs = self._inputs_for(arrival_rates)
        worst = 0.0
        for resource in inputs.resources:
            load = inputs.consolidated_load(resource, "offered")
            worst = max(worst, load / servers_on if servers_on else 0.0)
        return min(worst, 1.0)

    # -- horizon --------------------------------------------------------------

    def plan(self, profile: Sequence[Mapping[str, float]]) -> DynamicPlan:
        """Build the schedule for a sequence of per-period arrival rates."""
        if not profile:
            raise ValueError("profile must contain at least one period")
        needed = [self.servers_needed(rates) for rates in profile]
        peak = max(needed)

        periods: list[PeriodPlan] = []
        on = needed[0]
        hold = self.hold_state()
        total_energy = 0.0
        boot_spent = 0.0
        for k, rates in enumerate(profile):
            want = needed[k]
            booted = shut = 0
            if want > on:
                booted = want - on
                boot_spent += booted * self.boot_energy
                total_energy += booted * self.boot_energy
                on = want
            if hold.step(on - want) == "fire":
                shut = on - want
                on = want
                hold.reset()
            util = self._period_utilization(rates, on)
            energy = on * self.power_model.draw(util) * self.period_length
            total_energy += energy
            periods.append(
                PeriodPlan(
                    period=k,
                    arrival_rates=dict(rates),
                    servers_needed=want,
                    servers_on=on,
                    utilization=util,
                    energy=energy,
                    booted=booted,
                    shut_down=shut,
                )
            )

        # Baseline: the peak fleet stays on all horizon at each period's load.
        static_energy = 0.0
        for rates in profile:
            util = self._period_utilization(rates, peak)
            static_energy += peak * self.power_model.draw(util) * self.period_length

        return DynamicPlan(
            periods=tuple(periods),
            period_length=self.period_length,
            peak_servers=peak,
            total_energy=total_energy,
            static_energy=static_energy,
            boot_energy_spent=boot_spent,
        )
