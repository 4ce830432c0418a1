"""Differential test: per-resource departure heaps against engine events.

:class:`LossNetwork` keeps each resource's departures in a float min-heap
and drains them before every engine event; the oracle
:class:`oracles.engine_event_loss_network.EngineEventLossNetwork` runs the
same network with one engine event per departure.  From one seed both
must give equal results field for field, leave the generator in the same
state and, with a telemetry bus on, write equal series documents apart
from ``engine.events`` (which counts engine events).
"""

import math

import numpy as np
import pytest

from oracles.engine_event_loss_network import EngineEventLossNetwork
from repro.core.inputs import ResourceKind
from repro.core.power import ServerPowerModel
from repro.obs.timeseries import TelemetryBus, scoped_bus
from repro.queueing.distributions import (
    Deterministic,
    ErlangK,
    Exponential,
    HyperExponential,
)
from repro.simulation.loss_network import LossNetwork, ServiceTraffic

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK_IO
NET = ResourceKind.NETWORK

LAWS = {
    "exponential": lambda mean: Exponential(1.0 / mean),
    "deterministic": lambda mean: Deterministic(mean),
    "erlang3": lambda mean: ErlangK.from_mean(mean, 3),
    "hyperexponential": lambda mean: HyperExponential.balanced_two_phase(mean, 4.0),
}


def services(law="exponential", scale=1.0):
    """Two services over three resources; the web service holds two."""
    make = LAWS[law]
    return [
        ServiceTraffic("web", 30.0, {CPU: make(0.2 * scale), DISK: make(0.15 * scale)}),
        ServiceTraffic("db", 6.0, {NET: make(0.5 * scale), CPU: make(0.3 * scale)}),
    ]


class RecordingControl:
    """Stub controller: records its calls and tracks the busy level."""

    interval = 0.75

    def __init__(self):
        self.calls = []

    def tick(self, t, rates, busy):
        self.calls.append((t, dict(rates), busy))
        return max(1, math.ceil(busy) + 1)


def run_both(servers, traffics, horizon, seed, *, telemetry, control=None, **kwargs):
    """Run the oracle and the network from one seed; return both outcomes."""
    outcomes = []
    for cls in (EngineEventLossNetwork, LossNetwork):
        rng = np.random.default_rng(seed)
        ctl = control() if control is not None else None
        docs = None
        if telemetry:
            with scoped_bus(TelemetryBus(bucket_width=0.5, max_buckets=8)) as bus:
                net = cls(servers, traffics, pool="p", power_model=ServerPowerModel())
                result = net.run(horizon, rng, control=ctl, **kwargs)
            docs = [d for d in bus.to_docs() if d["series"] != "engine.events"]
            assert docs
        else:
            result = cls(servers, traffics, pool="p").run(
                horizon, rng, control=ctl, **kwargs
            )
        outcomes.append(
            (result, rng.random(), docs, ctl.calls if ctl is not None else None)
        )
    return outcomes


def assert_same(outcomes):
    (ref, ref_next, ref_docs, ref_calls), (got, got_next, got_docs, got_calls) = outcomes
    assert got.total_arrived > 0
    assert got == ref
    assert got_next == ref_next
    assert got_docs == ref_docs
    assert got_calls == ref_calls


@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
class TestAgainstEngineEvents:
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_holding_laws(self, law, telemetry):
        outcomes = run_both(4, services(law), 6.0, 11, telemetry=telemetry)
        assert sum(outcomes[1][0].per_service_blocked.values()) > 0
        assert_same(outcomes)

    def test_capacity_schedule_shrinks_and_regrows(self, telemetry):
        schedule = [(1.5, 2), (3.0, 1), (4.0, 5), (5.5, 3)]
        assert_same(run_both(
            4, services(), 6.0, 12, telemetry=telemetry, capacity_schedule=schedule
        ))

    def test_rate_schedule(self, telemetry):
        steps = {"web": [(0.0, 10.0), (2.0, 45.0), (4.0, 0.0), (4.5, 20.0)]}
        assert_same(run_both(
            4, services(), 6.0, 13, telemetry=telemetry, rate_schedule=steps
        ))

    def test_control(self, telemetry):
        outcomes = run_both(
            3, services(), 6.0, 14, telemetry=telemetry, control=RecordingControl
        )
        assert len(outcomes[1][3]) == 8
        assert_same(outcomes)

    def test_holds_outlast_the_horizon(self, telemetry):
        outcomes = run_both(40, services(scale=50.0), 1.0, 15, telemetry=telemetry)
        result = outcomes[1][0]
        # The last departure, not the horizon, ends the run.
        assert result.duration > 10.0
        assert all(u > 0.0 for u in result.per_resource_utilization.values())
        assert_same(outcomes)


class TestTieRule:
    """A departure at exactly an arrival's float instant leaves first."""

    RATE = 3.0

    def arrivals(self, seed):
        probe = np.random.default_rng(seed)
        first = 0.0 + probe.exponential(1.0 / self.RATE)
        return first, first + probe.exponential(1.0 / self.RATE)

    def run(self, hold, horizon, seed):
        traffic = ServiceTraffic("s", self.RATE, {CPU: Deterministic(hold)})
        return LossNetwork(1, [traffic]).run(horizon, np.random.default_rng(seed))

    def test_arrival_at_a_departure_instant_finds_the_unit_free(self):
        seed = 3
        first, second = self.arrivals(seed)
        hold = second - first
        assert first + hold == second
        # The horizon admits exactly the two arrivals.
        horizon = second + 1e-9
        tied = self.run(hold, horizon, seed)
        assert tied.per_service_arrived == {"s": 2}
        assert tied.per_service_blocked == {"s": 0}
        longer = hold + 1e-10
        assert first + longer > second
        later = self.run(longer, horizon, seed)
        assert later.per_service_blocked == {"s": 1}
