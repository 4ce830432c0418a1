"""Unit tests for the utility analytic model (Fig. 4 algorithm)."""

import pytest

from repro.core.inputs import ModelInputs, ResourceKind, ServiceSpec
from repro.core.model import UtilityAnalyticModel
from repro.queueing.erlang import erlang_b, min_servers

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK_IO


def web(rate=1200.0):
    return ServiceSpec("web", rate, {CPU: 3360.0, DISK: 1420.0}, {CPU: 0.65, DISK: 0.8})


def db(rate=80.0):
    return ServiceSpec("db", rate, {CPU: 100.0}, {CPU: 0.9})


def solve(rates=(1200.0, 80.0), b=0.01, load_model="paper"):
    inputs = ModelInputs((web(rates[0]), db(rates[1])), b)
    return UtilityAnalyticModel(inputs, load_model=load_model).solve()


class TestDedicatedSizing:
    def test_per_resource_inversion(self):
        sol = solve()
        sizing = sol.dedicated_for("web")
        assert sizing.per_resource_servers[DISK] == min_servers(1200.0 / 1420.0, 0.01)
        assert sizing.per_resource_servers[CPU] == min_servers(1200.0 / 3360.0, 0.01)

    def test_bottleneck_is_max_resource(self):
        sizing = solve().dedicated_for("web")
        assert sizing.bottleneck == DISK
        assert sizing.servers == sizing.per_resource_servers[DISK]

    def test_m_is_sum_of_islands(self):
        sol = solve()
        assert sol.dedicated_servers == sum(d.servers for d in sol.dedicated)

    def test_achieved_blocking_meets_target(self):
        for sizing in solve().dedicated:
            for rho in sizing.per_resource_load.values():
                assert erlang_b(sizing.servers, rho) <= 0.01

    def test_unknown_service_raises(self):
        with pytest.raises(KeyError):
            solve().dedicated_for("nope")


class TestConsolidatedSizing:
    def test_n_is_max_over_resources(self):
        sol = solve()
        assert sol.consolidated_servers == max(
            sol.consolidated_per_resource_servers.values()
        )

    def test_consolidated_blocking_meets_target(self):
        sol = solve()
        for rho in sol.consolidated_load.values():
            assert erlang_b(sol.consolidated_servers, rho) <= 0.01

    def test_case_study_group1(self):
        sol = solve((600.0, 40.0))
        assert sol.dedicated_servers == 6
        assert sol.consolidated_servers == 3

    def test_case_study_group2(self):
        sol = solve((1200.0, 80.0))
        assert sol.dedicated_servers == 8
        assert sol.consolidated_servers == 4

    def test_savings_accessors(self):
        sol = solve((1200.0, 80.0))
        assert sol.servers_saved == 4
        assert sol.infrastructure_saving == pytest.approx(0.5)

    def test_offered_mode_needs_more_servers(self):
        # Conservative load model can only increase N.
        assert (
            solve(load_model="offered").consolidated_servers
            >= solve(load_model="paper").consolidated_servers
        )

    def test_consolidated_bottleneck_is_cpu(self):
        assert solve().consolidated_bottleneck == CPU

    def test_rejects_unknown_load_model(self):
        inputs = ModelInputs((web(),), 0.01)
        with pytest.raises(ValueError):
            UtilityAnalyticModel(inputs, load_model="nope")


class TestSingleServiceIdentity:
    def test_single_service_a1_consolidation_is_noop(self):
        # One service, no virtualization overhead: pooling changes nothing,
        # so N equals that service's dedicated island.
        s = ServiceSpec("solo", 700.0, {CPU: 100.0})
        sol = UtilityAnalyticModel(ModelInputs((s,), 0.01)).solve()
        assert sol.consolidated_servers == sol.dedicated_servers

    def test_single_service_with_overhead_needs_more(self):
        s = ServiceSpec("solo", 700.0, {CPU: 100.0}, {CPU: 0.5})
        sol = UtilityAnalyticModel(ModelInputs((s,), 0.01)).solve()
        assert sol.consolidated_servers >= sol.dedicated_servers


class TestBlockingWithServers:
    def test_consolidated_matches_erlang(self):
        inputs = ModelInputs((web(), db()), 0.01)
        model = UtilityAnalyticModel(inputs)
        loads = model.consolidated_loads()
        expected = max(erlang_b(4, rho) for rho in loads.values())
        assert model.blocking_with_servers(4) == pytest.approx(expected)

    def test_dedicated_uses_worst_island(self):
        inputs = ModelInputs((web(), db()), 0.01)
        model = UtilityAnalyticModel(inputs)
        worst = model.blocking_with_servers(2, consolidated=False)
        assert worst == pytest.approx(
            max(
                erlang_b(2, 1200.0 / 1420.0),
                erlang_b(2, 1200.0 / 3360.0),
                erlang_b(2, 80.0 / 100.0),
            )
        )

    def test_more_servers_less_blocking(self):
        model = UtilityAnalyticModel(ModelInputs((web(), db()), 0.01))
        assert model.blocking_with_servers(8) <= model.blocking_with_servers(2)

    def test_rejects_negative(self):
        model = UtilityAnalyticModel(ModelInputs((web(),), 0.01))
        with pytest.raises(ValueError):
            model.blocking_with_servers(-1)
