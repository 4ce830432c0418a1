"""Unit/integration tests for the data-center scenario runner."""

import numpy as np
import pytest

from repro.core.inputs import ModelInputs, ResourceKind, ServiceSpec
from repro.simulation.datacenter import DataCenterSimulation

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK_IO


def group2_inputs():
    web = ServiceSpec(
        "web", 1200.0, {CPU: 3360.0, DISK: 1420.0}, {CPU: 0.65, DISK: 0.8}
    )
    db = ServiceSpec("db", 80.0, {CPU: 100.0}, {CPU: 0.9})
    return ModelInputs((web, db), 0.01)


@pytest.fixture
def sim():
    return DataCenterSimulation(group2_inputs())


class TestDedicatedScenario:
    def test_structure(self, sim, rng):
        result = sim.run_dedicated({"web": 4, "db": 4}, 60.0, rng)
        assert result.scenario == "dedicated"
        assert result.servers == 8
        assert set(result.per_service_loss) == {"web", "db"}
        assert result.energy.duration == pytest.approx(60.0)

    def test_loss_near_target_at_model_sizing(self, sim, rng):
        result = sim.run_dedicated({"web": 4, "db": 4}, 300.0, rng)
        # The model promises <= 1% loss; allow sampling noise.
        assert result.per_service_loss["web"] <= 0.03
        assert result.per_service_loss["db"] <= 0.03

    def test_throughput_close_to_offered(self, sim, rng):
        result = sim.run_dedicated({"web": 4, "db": 4}, 300.0, rng)
        assert result.per_service_throughput["web"] == pytest.approx(
            1200.0, rel=0.05
        )
        assert result.per_service_throughput["db"] == pytest.approx(80.0, rel=0.1)

    def test_fleet_utilization_diluted_by_islands(self, sim, rng):
        # DB islands never touch disk; web islands barely touch CPU: the
        # fleet-wide averages must be low — the waste Fig. 1(a) shows.
        result = sim.run_dedicated({"web": 4, "db": 4}, 120.0, rng)
        assert result.per_resource_utilization[CPU] < 0.3
        assert result.per_resource_utilization[DISK] < 0.3

    def test_missing_service_count_raises(self, sim, rng):
        with pytest.raises(KeyError):
            sim.run_dedicated({"web": 4}, 10.0, rng)

    def test_zero_island_rejected(self, sim, rng):
        with pytest.raises(ValueError):
            sim.run_dedicated({"web": 0, "db": 4}, 10.0, rng)


class TestConsolidatedScenario:
    def test_structure(self, sim, rng):
        result = sim.run_consolidated(4, 60.0, rng)
        assert result.scenario == "consolidated"
        assert result.servers == 4
        assert result.total_throughput > 0.0

    def test_utilization_higher_than_dedicated(self, sim, rng_factory):
        ded = sim.run_dedicated({"web": 4, "db": 4}, 200.0, rng_factory(1))
        con = sim.run_consolidated(4, 200.0, rng_factory(2))
        assert (
            con.per_resource_utilization[CPU] > ded.per_resource_utilization[CPU]
        )

    def test_more_servers_reduce_loss(self, sim, rng_factory):
        small = sim.run_consolidated(3, 200.0, rng_factory(3))
        large = sim.run_consolidated(6, 200.0, rng_factory(4))
        assert large.worst_loss <= small.worst_loss + 0.01


class TestCaseStudy:
    def test_power_saving_band(self, sim, rng):
        case = sim.run_case_study({"web": 4, "db": 4}, 4, 200.0, rng)
        # Paper: up to 53% total power saving for 8 -> 4 with Xen effects.
        assert case.power_saving == pytest.approx(0.53, abs=0.06)

    def test_utilization_improvement_exceeds_server_ratio(self, sim, rng):
        case = sim.run_case_study({"web": 4, "db": 4}, 4, 200.0, rng)
        assert case.utilization_improvement(CPU) > 2.0

    def test_workload_power_saving_positive(self, sim, rng):
        case = sim.run_case_study({"web": 4, "db": 4}, 4, 200.0, rng)
        assert case.workload_power_saving > 0.0

    def test_platform_factors_off_reduces_saving(self, rng):
        plain = DataCenterSimulation(
            group2_inputs(), xen_idle_factor=1.0, xen_workload_factor=1.0
        )
        case = plain.run_case_study({"web": 4, "db": 4}, 4, 150.0, rng)
        # Without Xen platform effects the saving tracks the server ratio.
        assert case.power_saving == pytest.approx(0.5, abs=0.05)

