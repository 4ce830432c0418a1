"""Reactive consolidation controller on the DES virtual clock.

One :class:`ConsolidationController` closes the loop the ROADMAP asks for:
every ``interval`` of virtual time it observes the pool (measured
per-service arrival rates and mean busy servers), re-sizes it with the
*same* :class:`~repro.core.dynamic.DynamicCapacityPlanner` the oracle plan
uses, and acts through a :class:`~repro.control.fleet.FleetState` — boots
on overload alarms, draining shutdowns (minimum-migration victims, BFD
re-placement) on underload alarms that persist past the planner's
``hold_periods`` hysteresis.

Detection steps one :class:`~repro.obs.alarms.AlarmState` per rule each
tick — the same trailing-window / debounce / hysteresis state machine that
:meth:`AlarmManager.evaluate <repro.obs.alarms.AlarmManager.evaluate>`
folds over a recorded series, so the live transitions are the ones a
post-hoc pass over the ``control.pressure`` buckets finds.  The shrink
hold is the planner's :meth:`~repro.core.dynamic.DynamicCapacityPlanner
.hold_state`, the same machine again.  The monitored signal is **pressure**
``servers_needed / servers_on`` — demand (QoS-sized by the analytic model
from measured rates) over supply — which stays scale-free where raw
utilization saturates: at thousand-host scale QoS sizing itself runs the
pool near 90% busy, so a fixed utilization threshold would either always
or never fire.

Every decision is recorded three ways: a ``kind="control"`` structured
trace event, ``control.*`` telemetry series on the construct-time-bound
bus (pressure, servers on/needed as gauges; boots, shutdowns, migrations
as counters), and a :class:`ControlDecision` retained for the experiment
artifact stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.dynamic import DynamicCapacityPlanner
from ..obs.alarms import AlarmEvent, AlarmManager, AlarmRule, AlarmState
from ..obs.timeseries import get_bus
from ..obs.trace import get_trace
from .fleet import FleetState
from .migration import MigrationCostModel

__all__ = ["ControllerConfig", "ControlDecision", "ConsolidationController"]

PRESSURE_SERIES = "control.pressure"


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the reactive loop (all recorded in run manifests).

    ``interval``
        Virtual time between control ticks (hours in the experiments).
    ``overload_pressure`` / ``overload_clear``
        Fire when the windowed mean pressure reaches the threshold
        (``1.0`` = the fleet is at or below the QoS-critical size); clear
        once it falls below ``overload_clear``.
    ``underload_pressure`` / ``underload_clear``
        Mirrored downward band for shrink eligibility.
    ``window`` / ``debounce``
        Trailing buckets averaged and consecutive breached windows
        required before an alarm fires (Neat-style anti-flap guards).
    ``headroom``
        Fractional capacity kept above the QoS-critical size after any
        action, so post-action pressure lands between the clear
        thresholds and the controller settles instead of flapping.
    """

    interval: float = 0.5
    overload_pressure: float = 1.0
    overload_clear: float = 0.90
    underload_pressure: float = 0.75
    underload_clear: float = 0.85
    window: int = 2
    debounce: int = 2
    headroom: float = 0.15
    migration: MigrationCostModel = field(default_factory=MigrationCostModel)
    pool: str = "pool"

    def __post_init__(self) -> None:
        if self.interval <= 0.0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if self.headroom < 0.0:
            raise ValueError(f"headroom must be >= 0, got {self.headroom}")
        if not 0.0 < self.underload_pressure < self.overload_pressure:
            raise ValueError(
                "need 0 < underload_pressure < overload_pressure, got "
                f"{self.underload_pressure} vs {self.overload_pressure}"
            )
        # Band sanity is delegated to AlarmRule (clear on the safe side);
        # rules() constructs them eagerly so a bad config fails here.
        self.rules()

    def rules(self) -> tuple[AlarmRule, AlarmRule]:
        """The (overload, underload) rules this config induces."""
        labels = {"pool": self.pool}
        return (
            AlarmRule(
                "control-overload", PRESSURE_SERIES, "overload",
                threshold=self.overload_pressure, clear=self.overload_clear,
                window=self.window, debounce=self.debounce, labels=labels,
            ),
            AlarmRule(
                "control-underload", PRESSURE_SERIES, "underload",
                threshold=self.underload_pressure, clear=self.underload_clear,
                window=self.window, debounce=self.debounce, labels=labels,
            ),
        )


@dataclass(frozen=True)
class ControlDecision:
    """One control tick's observation and (possibly empty) action."""

    t: float
    kind: str  # "boot" | "shutdown" | "hold"
    pressure: float
    servers_needed: int
    servers_before: int
    servers_after: int
    booted: int = 0
    shut_down: int = 0
    migrations: int = 0
    alarms: tuple[str, ...] = ()

    def to_doc(self) -> dict[str, Any]:
        """Plain-JSON view for experiment artifacts."""
        return {
            "t": round(self.t, 9),
            "kind": self.kind,
            "pressure": round(self.pressure, 6),
            "servers_needed": self.servers_needed,
            "servers_before": self.servers_before,
            "servers_after": self.servers_after,
            "booted": self.booted,
            "shut_down": self.shut_down,
            "migrations": self.migrations,
            "alarms": list(self.alarms),
        }


class ConsolidationController:
    """Close the loop: observe -> size -> alarm-gated boot/shrink.

    Parameters
    ----------
    planner:
        Sizing + hysteresis + energy authority.  Its ``period_length``
        (seconds) should equal ``config.interval`` in the simulation's
        time unit (e.g. interval 0.5 h -> period_length 1800 s) so the
        energy ledger integrates correctly.
    fleet:
        Host universe, VM inventory and placement state.
    config:
        Alarm band, headroom and migration-cost knobs.
    """

    def __init__(
        self,
        planner: DynamicCapacityPlanner,
        fleet: FleetState,
        config: ControllerConfig | None = None,
    ) -> None:
        self.planner = planner
        self.fleet = fleet
        self.config = config or ControllerConfig()
        overload, underload = self.config.rules()
        self._overload = AlarmState(overload)
        self._underload = AlarmState(underload)
        self._hold = planner.hold_state()
        self.manager = AlarmManager([overload, underload])
        self.decisions: list[ControlDecision] = []
        self.events: list[AlarmEvent] = []
        # Ledger (joules / counts) in the planner's algebra.
        self.energy_j = 0.0
        self.boot_energy_j = 0.0
        self.migration_energy_j = 0.0
        self.server_ticks = 0
        self.ticks = 0
        self.boots = 0
        self.shutdowns = 0
        self.migrations = 0
        # Construct-time telemetry binding (repo-wide contract).
        bus = get_bus()
        labels = {"pool": self.config.pool}
        self._pressure_g = bus.gauge(PRESSURE_SERIES, labels)
        self._on_g = bus.gauge("control.servers_on", labels)
        self._needed_g = bus.gauge("control.servers_needed", labels)
        self._boots_c = bus.counter("control.boots", labels)
        self._shut_c = bus.counter("control.shutdowns", labels)
        self._mig_c = bus.counter("control.migrations", labels)
        self._gauges = (self._pressure_g, self._on_g, self._needed_g)
        self._on_g.set(0.0, float(fleet.powered_count))

    # -- the control loop -----------------------------------------------------

    @property
    def interval(self) -> float:
        """Virtual time between ticks (the DES binding's schedule step)."""
        return self.config.interval

    def target_for(self, needed: int) -> int:
        """Post-action fleet size for a QoS-critical size ``needed``."""
        sized = math.ceil(needed * (1.0 + self.config.headroom))
        return max(sized, self.planner.min_servers, self.fleet.packing_floor, 1)

    def observe(
        self, t: float, rates: Mapping[str, float], busy: float
    ) -> ControlDecision:
        """One control tick at virtual time ``t``.

        ``rates`` are the per-service arrival rates *measured* over the
        last interval; ``busy`` the interval's mean busy servers (any
        non-negative proxy works — fluid mode passes offered load).  The
        returned decision has already been applied to the fleet.
        """
        cfg = self.config
        planner = self.planner
        on = self.fleet.powered_count
        needed = planner.servers_needed(rates)
        pressure = needed / on if on else float("inf")

        transitions: list[str] = []
        for state in (self._overload, self._underload):
            change = state.step(pressure)
            if change is not None:
                rule = state.rule
                self.events.append(
                    state.event(change, t, rule.series, dict(rule.labels))
                )
                transitions.append(f"{rule.kind}:{change}")

        target = self.target_for(needed)
        self._hold.step(on - target)
        kind = "hold"
        booted = shut = migs = 0
        if self._overload.firing and target > on:
            # QoS first: overload boots immediately to the headroom size.
            scale = self.fleet.scale_up(target - on)
            booted = scale.completed
            if booted:
                kind = "boot"
                boot_j = booted * planner.boot_energy
                self.boot_energy_j += boot_j
                self.energy_j += boot_j
                self.boots += booted
                self._boots_c.add(t, booted)
        elif self._underload.firing and self._hold.firing:
            scale = self.fleet.scale_down(on - target)
            shut = scale.completed
            migs = len(scale.migrations)
            if shut:
                kind = "shutdown"
                cost = cfg.migration.batch_cost(
                    scale.migrations_per_source, planner.power_model
                )
                self.migration_energy_j += cost.energy_j
                self.energy_j += cost.energy_j
                self.shutdowns += shut
                self.migrations += migs
                self._shut_c.add(t, shut)
                if migs:
                    self._mig_c.add(t, migs)
            self._hold.reset()

        on_after = self.fleet.powered_count
        util = min(max(busy, 0.0) / on_after, 1.0) if on_after else 0.0
        self.energy_j += (
            on_after * planner.power_model.draw(util) * planner.period_length
        )
        self.server_ticks += on_after
        self.ticks += 1

        self._pressure_g.set(t, pressure)
        self._on_g.set(t, float(on_after))
        self._needed_g.set(t, float(needed))

        decision = ControlDecision(
            t=t, kind=kind, pressure=pressure, servers_needed=needed,
            servers_before=on, servers_after=on_after,
            booted=booted, shut_down=shut, migrations=migs,
            alarms=tuple(transitions),
        )
        if kind != "hold" or transitions:
            self.decisions.append(decision)
            get_trace().emit(
                "control_decision",
                kind="control",
                action=kind,
                t=round(t, 9),
                pressure=round(pressure, 6),
                servers_needed=needed,
                servers_before=on,
                servers_after=on_after,
                booted=booted,
                shut_down=shut,
                migrations=migs,
                alarms=",".join(transitions),
                pool=cfg.pool,
            )
        return decision

    def tick(self, t: float, rates: Mapping[str, float], busy: float) -> int:
        """DES-binding entry point: observe, return the new pool size."""
        return self.observe(t, rates, busy).servers_after

    # -- shutdown -------------------------------------------------------------

    def finalize(self, t: float) -> list[AlarmEvent]:
        """Close gauges at ``t``, emit alarm events (+ open-at-exit ones).

        Returns the full event list, now including one ``open_at_exit``
        record per rule still firing — same contract as
        :meth:`AlarmManager.open_alarms`.
        """
        for gauge in self._gauges:
            gauge.finalize(t)
        for state in (self._overload, self._underload):
            if state.firing:
                rule = state.rule
                self.events.append(
                    state.event("open_at_exit", t, rule.series, dict(rule.labels))
                )
        self.manager.emit(self.events)
        return list(self.events)

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Ledger rollup (golden-pinnable: ints and rounded floats only)."""
        alarm_counts = self.manager.summarize(self.events)
        return {
            "ticks": self.ticks,
            "server_ticks": self.server_ticks,
            "server_hours": round(self.server_ticks * self.config.interval, 3),
            "energy_kwh": round(self.energy_j / 3.6e6, 3),
            "boot_energy_kwh": round(self.boot_energy_j / 3.6e6, 3),
            "migration_energy_kwh": round(self.migration_energy_j / 3.6e6, 3),
            "boots": self.boots,
            "shutdowns": self.shutdowns,
            "migrations": self.migrations,
            "decisions": len(self.decisions),
            "overload_fires": alarm_counts["overload_fires"],
            "underload_fires": alarm_counts["underload_fires"],
            "alarm_clears": alarm_counts["clears"],
        }
