"""Unit tests for the loss-system and loss-network simulations."""

import numpy as np
import pytest

from repro.core.inputs import ResourceKind
from repro.queueing.distributions import Deterministic, Exponential
from repro.queueing.poisson import poisson_arrivals
from repro.simulation.loss_network import (
    LossNetwork,
    ServiceTraffic,
    simulate_loss_system,
)

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK_IO


class TestSimulateLossSystem:
    def test_no_blocking_under_light_load(self, rng):
        arrivals = poisson_arrivals(0.1, 1000.0, rng)
        result = simulate_loss_system(arrivals, Exponential(10.0), 5, rng)
        assert result.loss_probability == 0.0
        assert result.arrived == arrivals.size

    def test_zero_servers_blocks_all(self, rng):
        arrivals = poisson_arrivals(1.0, 100.0, rng)
        result = simulate_loss_system(arrivals, Exponential(1.0), 0, rng)
        assert result.loss_probability == 1.0

    def test_conservation(self, rng):
        arrivals = poisson_arrivals(5.0, 500.0, rng)
        result = simulate_loss_system(arrivals, Exponential(1.0), 3, rng)
        assert result.blocked + (result.arrived - result.blocked) == result.arrived
        assert 0.0 <= result.loss_probability <= 1.0

    def test_utilization_bounded(self, rng):
        arrivals = poisson_arrivals(50.0, 200.0, rng)
        result = simulate_loss_system(arrivals, Exponential(1.0), 4, rng)
        assert 0.0 <= result.utilization <= 1.0

    def test_deterministic_service(self, rng):
        # Insensitivity smoke test: M/D/1/1 with rho=1 blocks ~ 1/2... the
        # exact value for M/D/1/1 is rho/(1+rho) only for M/M; for M/G it is
        # E_1(rho) = rho/(1+rho) by insensitivity. Check that.
        arrivals = poisson_arrivals(1.0, 50_000.0, rng)
        result = simulate_loss_system(arrivals, Deterministic(1.0), 1, rng)
        assert result.loss_probability == pytest.approx(0.5, abs=0.01)

    def test_rejects_unsorted(self, rng):
        with pytest.raises(ValueError):
            simulate_loss_system(np.array([2.0, 1.0]), Exponential(1.0), 1, rng)

    def test_empty_arrivals(self, rng):
        result = simulate_loss_system(np.empty(0), Exponential(1.0), 1, rng)
        assert result.arrived == 0
        assert result.loss_probability == 0.0


class TestServiceTraffic:
    def test_exponential_factory_drops_infinite(self):
        t = ServiceTraffic.exponential(
            "db", 80.0, {CPU: 100.0, DISK: float("inf")}
        )
        assert CPU in t.holding
        assert DISK not in t.holding

    def test_all_infinite_rejected(self):
        with pytest.raises(ValueError):
            ServiceTraffic.exponential("x", 1.0, {CPU: float("inf")})

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceTraffic("", 1.0, {CPU: Exponential(1.0)})
        with pytest.raises(ValueError):
            ServiceTraffic("x", -1.0, {CPU: Exponential(1.0)})
        with pytest.raises(ValueError):
            ServiceTraffic("x", 1.0, {})


class TestLossNetwork:
    def test_single_resource_single_service_runs(self, rng):
        net = LossNetwork(2, [ServiceTraffic.exponential("s", 3.0, {CPU: 2.0})])
        result = net.run(500.0, rng)
        assert result.per_service_arrived["s"] > 1000
        assert 0.0 <= result.per_service_loss["s"] <= 1.0
        assert 0.0 <= result.per_resource_utilization[CPU] <= 1.0

    def test_conservation_per_service(self, rng):
        net = LossNetwork(
            3,
            [
                ServiceTraffic.exponential("a", 2.0, {CPU: 1.0}),
                ServiceTraffic.exponential("b", 1.0, {CPU: 1.0, DISK: 2.0}),
            ],
        )
        result = net.run(300.0, rng)
        for name in ("a", "b"):
            assert 0 <= result.per_service_blocked[name] <= result.per_service_arrived[name]
        assert result.total_arrived == sum(result.per_service_arrived.values())

    def test_multi_resource_blocking_dominates_single(self, rng_factory):
        # Needing two resources can only increase blocking versus one.
        single = LossNetwork(
            2, [ServiceTraffic.exponential("s", 4.0, {CPU: 1.5})]
        ).run(400.0, rng_factory(1))
        double = LossNetwork(
            2,
            [ServiceTraffic.exponential("s", 4.0, {CPU: 1.5, DISK: 1.5})],
        ).run(400.0, rng_factory(1))
        assert (
            double.per_service_loss["s"] >= single.per_service_loss["s"] - 0.02
        )

    def test_more_servers_less_loss(self, rng_factory):
        traffic = [ServiceTraffic.exponential("s", 10.0, {CPU: 2.0})]
        small = LossNetwork(2, traffic).run(300.0, rng_factory(2))
        big = LossNetwork(10, traffic).run(300.0, rng_factory(2))
        assert big.per_service_loss["s"] < small.per_service_loss["s"]

    def test_loss_ci_brackets_estimate(self, rng):
        net = LossNetwork(1, [ServiceTraffic.exponential("s", 2.0, {CPU: 1.0})])
        result = net.run(500.0, rng)
        lo, hi = result.per_service_loss_ci["s"]
        assert lo <= result.per_service_loss["s"] <= hi

    def test_validation(self):
        with pytest.raises(ValueError):
            LossNetwork(0, [ServiceTraffic.exponential("s", 1.0, {CPU: 1.0})])
        with pytest.raises(ValueError):
            LossNetwork(1, [])
        t = ServiceTraffic.exponential("s", 1.0, {CPU: 1.0})
        with pytest.raises(ValueError):
            LossNetwork(1, [t, t])
        with pytest.raises(ValueError):
            LossNetwork(1, [t]).run(0.0, np.random.default_rng())


class TestFixedSeedReplication:
    """The paper's group-1 Web+DB deployment scaled 26x (web 15600 req/s,
    DB 1040 WIPS, B = 0.01), sized by the model and simulated for 4
    virtual seconds from seed 2009: exact counts, so any change to the
    engine's event order or the network's RNG draw order shows here."""

    DEPLOYMENT = {
        "loss_probability": 0.01,
        "services": [
            {"name": "web", "arrival_rate": 600.0 * 26.0,
             "service_rates": {"cpu": 3360.0, "disk_io": 1420.0},
             "impact_factors": {"cpu": 0.65, "disk_io": 0.8}},
            {"name": "db", "arrival_rate": 40.0 * 26.0,
             "service_rates": {"cpu": 100.0},
             "impact_factors": {"cpu": 0.9}},
        ],
    }

    def test_seed_2009_group1_counts(self):
        from repro.core import UtilityAnalyticModel
        from repro.core.plan import parse_deployment

        inputs, _, _ = parse_deployment(self.DEPLOYMENT)
        servers = UtilityAnalyticModel(inputs, load_model="offered").solve().consolidated_servers
        traffics = [
            ServiceTraffic.exponential(
                s.name, s.arrival_rate, {r: s.effective_mu(r) for r in s.service_rates}
            )
            for s in inputs.services
        ]
        rng = np.random.default_rng(2009)
        result = LossNetwork(servers, traffics, pool="bench").run(4.0, rng)
        assert servers == 29
        assert result.per_service_arrived == {"web": 62103, "db": 4213}
        assert result.per_service_blocked == {"web": 464, "db": 32}
        # Callers reuse the generator after a run: its state is pinned too.
        assert rng.random() == 0.4033025145514184


class TestTelemetryRecording:
    def net(self, pool="web", power=False):
        from repro.core.power import ServerPowerModel

        return LossNetwork(
            3,
            [ServiceTraffic.exponential("s", 4.0, {CPU: 2.0})],
            pool=pool,
            power_model=ServerPowerModel() if power else None,
        )

    def test_pool_series_recorded(self, rng):
        from repro.obs import TelemetryBus, scoped_bus

        bus = TelemetryBus(bucket_width=10.0)
        with scoped_bus(bus):
            net = self.net(power=True)
        result = net.run(100.0, rng)
        names = {(s.name, dict(s.labels).get("pool")) for s in bus.series()}
        for expected in (
            "pool.occupancy", "pool.capacity", "pool.busy_servers",
            "pool.arrivals", "pool.admits", "pool.losses",
            "pool.power_watts",
        ):
            assert (expected, "web") in names
        arrivals = next(
            s for s in bus.series() if s.name == "pool.arrivals"
        )
        assert arrivals.total == result.total_arrived

    def test_telemetry_does_not_disturb_rng(self, rng_factory):
        from repro.obs import TelemetryBus, scoped_bus

        plain = self.net().run(200.0, rng_factory(9))
        with scoped_bus(TelemetryBus()):
            observed = self.net().run(200.0, rng_factory(9))
        assert observed.per_service_loss == plain.per_service_loss
        assert observed.total_arrived == plain.total_arrived

    def test_admits_plus_losses_equal_arrivals(self, rng):
        from repro.obs import TelemetryBus, scoped_bus

        bus = TelemetryBus(bucket_width=10.0)
        with scoped_bus(bus):
            net = self.net()
        net.run(100.0, rng)
        by_name = {s.name: s for s in bus.series()}
        assert (
            by_name["pool.admits"].total + by_name["pool.losses"].total
            == by_name["pool.arrivals"].total
        )


class TestRateSchedule:
    def traffic(self, rate=6.0):
        return [ServiceTraffic.exponential("s", rate, {CPU: 2.0})]

    def test_constant_schedule_matches_homogeneous_intensity(self, rng):
        net = LossNetwork(4, self.traffic(rate=0.001))
        result = net.run(
            2000.0, rng, rate_schedule={"s": [(0.0, 6.0)]}
        )
        # Offered load 3 erlangs on 4 servers: loss well under 30%,
        # arrivals close to 6/unit time.
        assert result.total_arrived == pytest.approx(12000, rel=0.1)
        assert result.per_service_loss["s"] < 0.3

    def test_rate_steps_modulate_arrivals(self, rng):
        net = LossNetwork(50, self.traffic())
        quiet_then_busy = net.run(
            100.0, rng,
            rate_schedule={"s": [(0.0, 1.0), (50.0, 20.0)]},
        )
        assert quiet_then_busy.total_arrived == pytest.approx(
            1.0 * 50 + 20.0 * 50, rel=0.15
        )

    def test_no_schedule_is_byte_identical_to_legacy_path(self, rng_factory):
        legacy = LossNetwork(3, self.traffic()).run(300.0, rng_factory(4))
        modern = LossNetwork(3, self.traffic()).run(
            300.0, rng_factory(4), rate_schedule=None
        )
        assert legacy.per_service_arrived == modern.per_service_arrived
        assert legacy.per_service_blocked == modern.per_service_blocked

    def test_validation(self, rng):
        net = LossNetwork(3, self.traffic())
        with pytest.raises(ValueError, match="unknown service"):
            net.run(10.0, rng, rate_schedule={"ghost": [(0.0, 1.0)]})
        with pytest.raises(ValueError, match="non-empty"):
            net.run(10.0, rng, rate_schedule={"s": []})
        with pytest.raises(ValueError, match=">= 0"):
            net.run(10.0, rng, rate_schedule={"s": [(-1.0, 1.0)]})
        with pytest.raises(ValueError, match="identically zero"):
            net.run(10.0, rng, rate_schedule={"s": [(0.0, 0.0)]})
