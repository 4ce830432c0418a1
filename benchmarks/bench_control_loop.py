"""Benchmark: reactive-controller overhead at fleet scale.

The workload is the ``ext-dynamic`` fluid phase distilled: one simulated
week (336 half-hour ticks) of the reactive controller over a
deterministic diurnal trace at ~1000-host scale — sizing, alarm
evaluation, boots, and draining shutdowns included, DES and artifact
plumbing excluded.  The acceptance bar for the experiment ("a thousand-
host week in seconds") is exactly this loop's throughput.

The week's ledger at seed 2009 is part of the determinism contract, like
the golden summaries: the timed body asserts it, and
``tests/control/test_week_bench.py`` runs the discovered spec once in
tier-1.  Repeats in one process hit the Erlang memo after the first
week; ``perfbench``'s ``control_week`` times cold weeks in fresh
processes.
"""

import numpy as np
import pytest

from repro.control.controller import ConsolidationController, ControllerConfig
from repro.control.fleet import FleetState
from repro.core.dynamic import DynamicCapacityPlanner
from repro.core.inputs import ResourceKind, ServiceSpec
from repro.core.power import ServerPowerModel
from repro.virtualization.placement import VmDemand
from repro.workloads.traces import DiurnalProfile, FlashCrowd, TraceBundle

#: The seed-2009 week's ledger.
LEDGER_2009 = {"ticks": 336, "boots": 3279, "shutdowns": 3243, "migrations": 44}

_MU = 2.0
_SCALE = 40.0

_PROFILES = (
    DiurnalProfile(
        "web", base=2.0 * _SCALE, peak=16.0 * _SCALE, peak_hour=14.0,
        noise=0.05, flash=FlashCrowd(hour=20.0, magnitude=2.2, duration=2.0),
    ),
    DiurnalProfile("api", base=1.5 * _SCALE, peak=9.0 * _SCALE, peak_hour=11.0, noise=0.05),
    DiurnalProfile("batch", base=1.0 * _SCALE, peak=5.0 * _SCALE, peak_hour=18.0, noise=0.05),
)


def run_week(seed: int = 2009) -> dict[str, int]:
    """Drive one controller through a sampled week; returns the ledger."""
    rng = np.random.default_rng(seed)
    bundle = TraceBundle.sample(
        list(_PROFILES), days=7, samples_per_hour=2, rng=rng
    )
    services = [
        ServiceSpec(p.name, 1.0, {ResourceKind.CPU: _MU}, {ResourceKind.CPU: 1.0})
        for p in _PROFILES
    ]
    planner = DynamicCapacityPlanner(
        services, 0.02, power_model=ServerPowerModel(),
        period_length=1800.0, hold_periods=1,
    )
    vms = [
        VmDemand(f"{p.name}-{i}", {ResourceKind.CPU: 0.25})
        for p in _PROFILES
        for i in range(max(1, round(p.base / _MU / 0.25)))
    ]
    first = {name: float(tr[0]) for name, tr in bundle.traces.items()}
    peak_idx = int(np.argmax(bundle.combined))
    peak = {name: float(tr[peak_idx]) for name, tr in bundle.traces.items()}
    fleet = FleetState(
        int(np.ceil(1.5 * planner.servers_needed(peak))) + 2,
        vms,
        initial_on=int(np.ceil(1.15 * planner.servers_needed(first))),
    )
    controller = ConsolidationController(
        planner, fleet, ControllerConfig(interval=0.5, pool="bench")
    )
    for i, t in enumerate(bundle.hours):
        rates = {name: float(tr[i]) for name, tr in bundle.traces.items()}
        controller.tick(float(t), rates, busy=planner.offered_load(rates))
    return {
        "ticks": controller.ticks,
        "boots": controller.boots,
        "shutdowns": controller.shutdowns,
        "migrations": controller.migrations,
    }


@pytest.mark.benchmark(group="control-loop")
def test_week_1000_hosts(benchmark):
    assert benchmark(run_week) == LEDGER_2009
