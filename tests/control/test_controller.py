"""ConsolidationController: alarm semantics, actions, ledger, DES binding."""

import math

import numpy as np
import pytest

from repro.control.controller import (
    PRESSURE_SERIES,
    ConsolidationController,
    ControllerConfig,
)
from repro.control.fleet import FleetState
from repro.core.dynamic import DynamicCapacityPlanner
from repro.core.inputs import ResourceKind, ServiceSpec
from repro.core.power import ServerPowerModel
from repro.obs.alarms import AlarmManager, AlarmRule, AlarmState
from repro.obs.timeseries import TelemetryBus, scoped_bus
from repro.simulation.loss_network import LossNetwork, ServiceTraffic

CPU = ResourceKind.CPU
MU = 2.0


def _planner(**kwargs) -> DynamicCapacityPlanner:
    defaults = dict(
        power_model=ServerPowerModel(),
        period_length=1800.0,
        hold_periods=1,
    )
    defaults.update(kwargs)
    return DynamicCapacityPlanner(
        [ServiceSpec("svc", 1.0, {CPU: MU}, {CPU: 1.0})], 0.02, **defaults
    )


def _fleet(max_hosts: int = 40, initial_on: int = 6) -> FleetState:
    from repro.virtualization.placement import VmDemand

    vms = [VmDemand(f"vm-{i}", {CPU: 0.25}) for i in range(4)]
    return FleetState(max_hosts, vms, initial_on=initial_on)


class TestConfig:
    def test_defaults_validate(self):
        cfg = ControllerConfig()
        over, under = cfg.rules()
        assert over.kind == "overload" and under.kind == "underload"
        assert over.series == under.series == PRESSURE_SERIES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"headroom": -0.1},
            {"underload_pressure": 0.0},
            {"underload_pressure": 1.2},  # >= overload_pressure
            {"overload_clear": 1.5},  # clear above fire: AlarmRule rejects
            {"underload_clear": 0.5},  # clear below fire for underload
        ],
    )
    def test_rejects_bad_bands(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)


class TestLiveRuleMatchesAlarmManager:
    """Stepping an AlarmState live, one tick at a time, must find the
    transitions the post-hoc fold finds over the recorded gauge buckets."""

    @pytest.mark.parametrize(
        "values",
        [
            [0.5, 0.6, 1.1, 1.2, 1.3, 0.8, 0.7, 1.0, 1.05, 0.85],
            [1.2] * 5 + [0.5] * 5,
            [0.95, 1.0, 1.0, 0.89, 1.0, 1.0, 0.89],
            [0.7, 0.7, 0.7, 0.9, 0.7, 0.7],
            [1.5],
        ],
    )
    @pytest.mark.parametrize("kind", ["overload", "underload"])
    def test_transitions_match_post_hoc_walk(self, values, kind):
        if kind == "overload":
            rule = AlarmRule(
                "r", "s", "overload", threshold=1.0, clear=0.9,
                window=2, debounce=2,
            )
        else:
            rule = AlarmRule(
                "r", "s", "underload", threshold=0.75, clear=0.85,
                window=2, debounce=2,
            )
        live = AlarmState(rule)
        incremental = []
        for i, value in enumerate(values):
            change = live.step(value)
            if change is not None:
                incremental.append((change, i))

        bus = TelemetryBus(bucket_width=1.0, max_buckets=64)
        gauge = bus.gauge("s")
        for i, value in enumerate(values):
            gauge.set(float(i), value)
        gauge.finalize(float(len(values)))
        events = AlarmManager([rule]).evaluate(bus)
        # The post-hoc fold stamps each decision at the bucket's *end*
        # ((i+1)*width); the live rule reacts inside bucket i.  Same
        # bucket, shifted timestamp.
        post_hoc = [(e.state, int(e.t) - 1) for e in events]
        assert incremental == post_hoc


class TestControlLoop:
    def test_boot_on_sustained_overload(self):
        planner = _planner()
        fleet = _fleet(initial_on=4)
        controller = ConsolidationController(planner, fleet)
        high = {"svc": 14.0}  # needs well over 4 servers
        decisions = [
            controller.observe(0.5 * i, high, busy=planner.offered_load(high))
            for i in range(4)
        ]
        # Debounce is 2 ticks: no action on the first, boot once firing.
        assert decisions[0].kind == "hold"
        booted = [d for d in decisions if d.kind == "boot"]
        assert booted, "sustained overload must boot"
        first = booted[0]
        assert first.servers_after == controller.target_for(first.servers_needed)
        assert first.servers_after > first.servers_before
        assert controller.boots == sum(d.booted for d in decisions)
        assert controller.boot_energy_j == controller.boots * planner.boot_energy

    def test_shrink_waits_for_hold_periods(self):
        planner = _planner(hold_periods=2)
        fleet = _fleet(max_hosts=40, initial_on=24)
        controller = ConsolidationController(planner, fleet)
        low = {"svc": 2.0}
        drop_tick = None
        shrink_tick = None
        for i in range(10):
            d = controller.observe(0.5 * i, low, busy=planner.offered_load(low))
            if drop_tick is None and d.servers_needed < d.servers_before:
                drop_tick = i
            if shrink_tick is None and d.kind == "shutdown":
                shrink_tick = i
        assert drop_tick is not None and shrink_tick is not None
        # The streak is already 1 at the drop tick, so the shutdown cannot
        # land before drop + hold_periods (same boundary as planner.plan).
        assert shrink_tick - drop_tick >= planner.hold_periods
        after = controller.fleet.powered_count
        assert after == controller.target_for(planner.servers_needed(low))

    def test_steady_state_holds_without_flapping(self):
        planner = _planner()
        fleet = _fleet(max_hosts=40, initial_on=10)
        controller = ConsolidationController(planner, fleet)
        rates = {"svc": 10.0}
        kinds = [
            controller.observe(0.5 * i, rates, busy=planner.offered_load(rates)).kind
            for i in range(20)
        ]
        # After the initial convergence the controller settles.
        assert all(k == "hold" for k in kinds[6:])

    def test_energy_ledger_matches_planner_algebra(self):
        planner = _planner()
        fleet = _fleet(initial_on=6)
        controller = ConsolidationController(planner, fleet)
        rates = {"svc": 6.0}
        busy = 3.0
        decision = controller.observe(0.0, rates, busy=busy)
        assert decision.kind == "hold"
        on = decision.servers_after
        util = busy / on
        expected = on * planner.power_model.draw(util) * planner.period_length
        assert controller.energy_j == pytest.approx(expected)
        assert controller.server_ticks == on
        assert controller.ticks == 1

    def test_pressure_is_scale_free(self):
        planner = _planner()
        fleet = _fleet(initial_on=6)
        controller = ConsolidationController(planner, fleet)
        rates = {"svc": 6.0}
        d = controller.observe(0.0, rates, busy=planner.offered_load(rates))
        assert d.pressure == pytest.approx(d.servers_needed / d.servers_before)

    def test_finalize_emits_open_at_exit(self):
        planner = _planner()
        fleet = _fleet(max_hosts=8, initial_on=8)
        controller = ConsolidationController(planner, fleet)
        high = {"svc": 40.0}  # overload that can never be relieved
        for i in range(5):
            controller.observe(0.5 * i, high, busy=planner.offered_load(high))
        events = controller.finalize(2.5)
        states = [(e.rule, e.state) for e in events]
        assert ("control-overload", "fire") in states
        assert ("control-overload", "open_at_exit") in states

    def test_summary_is_golden_pinnable(self):
        planner = _planner()
        controller = ConsolidationController(planner, _fleet())
        rates = {"svc": 5.0}
        for i in range(4):
            controller.observe(0.5 * i, rates, busy=planner.offered_load(rates))
        summary = controller.summary()
        assert summary["ticks"] == 4
        assert summary["server_hours"] == pytest.approx(
            summary["server_ticks"] * 0.5, abs=1e-3
        )
        for key in (
            "energy_kwh", "boot_energy_kwh", "migration_energy_kwh",
            "boots", "shutdowns", "migrations", "decisions",
            "overload_fires", "underload_fires", "alarm_clears",
        ):
            assert key in summary

    def test_telemetry_series_recorded_on_scoped_bus(self):
        bus = TelemetryBus(bucket_width=0.5, max_buckets=64)
        planner = _planner()
        with scoped_bus(bus):
            controller = ConsolidationController(
                planner, _fleet(), ControllerConfig(pool="t")
            )
            rates = {"svc": 6.0}
            for i in range(3):
                controller.observe(0.5 * i, rates, busy=planner.offered_load(rates))
            controller.finalize(1.5)
        names = {s.name for s in bus.series()}
        assert {
            "control.pressure", "control.servers_on", "control.servers_needed",
        } <= names


class TestDesBinding:
    def test_loss_network_drives_the_controller(self):
        planner = _planner()
        fleet = _fleet(max_hosts=20, initial_on=8)
        controller = ConsolidationController(planner, fleet)
        traffic = ServiceTraffic.exponential("svc", 8.0, {CPU: MU})
        network = LossNetwork(
            fleet.powered_count, [traffic], pool="binding",
            power_model=ServerPowerModel(),
        )
        rng = np.random.default_rng(11)
        result = network.run(12.0, rng, control=controller)
        # One tick per interval over the horizon.
        assert controller.ticks == int(12.0 / controller.interval)
        assert 0.0 <= result.overall_loss <= 1.0
        # The fleet never darkens under control.
        assert controller.fleet.powered_count >= 1

    def test_rejects_non_positive_capacity(self):
        class Broken:
            interval = 0.5

            def tick(self, t, rates, busy):
                return 0

        traffic = ServiceTraffic.exponential("svc", 2.0, {CPU: MU})
        network = LossNetwork(4, [traffic], pool="broken")
        with pytest.raises(ValueError):
            network.run(2.0, np.random.default_rng(1), control=Broken())
