"""Unit tests for the high-level ConsolidationPlanner."""

import pytest

from repro.core.consolidation import ConsolidationPlanner
from repro.core.heterogeneous import HeterogeneousPool, ServerClass
from repro.core.inputs import ResourceKind, ServiceSpec
from repro.core.power import ServerPowerModel

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK_IO


def services():
    return [
        ServiceSpec(
            "web", 1200.0, {CPU: 3360.0, DISK: 1420.0}, {CPU: 0.65, DISK: 0.8}
        ),
        ServiceSpec("db", 80.0, {CPU: 100.0}, {CPU: 0.9}),
    ]


class TestPlanner:
    def test_plan_reproduces_group2(self):
        report = ConsolidationPlanner().plan(services(), 0.01)
        assert report.dedicated_servers == 8
        assert report.consolidated_servers == 4
        assert report.infrastructure_saving == pytest.approx(0.5)

    def test_plan_with_platform_effects(self):
        planner = ConsolidationPlanner(
            xen_idle_factor=0.91, xen_workload_factor=0.70
        )
        report = planner.plan(services(), 0.01)
        assert report.power_saving == pytest.approx(0.53, abs=0.04)

    def test_report_text_mentions_counts(self):
        text = ConsolidationPlanner().plan(services(), 0.01).to_text()
        assert "M = 8" in text
        assert "N = 4" in text
        assert "web" in text and "db" in text

    def test_custom_power_model_used(self):
        report_cheap = ConsolidationPlanner(
            power_model=ServerPowerModel(10.0, 20.0)
        ).plan(services(), 0.01)
        report_std = ConsolidationPlanner().plan(services(), 0.01)
        assert (
            report_cheap.power.dedicated_power < report_std.power.dedicated_power
        )

    def test_inventory_packing(self):
        big = ServerClass("big", {CPU: 16.0, DISK: 100.0}, count=8)
        small = ServerClass("small", {CPU: 8.0, DISK: 100.0}, count=4)
        planner = ConsolidationPlanner(
            inventory=HeterogeneousPool([big, small], reference=big)
        )
        report = planner.plan(services(), 0.01)
        assert report.consolidated_packing == {"big": 4}
        assert report.dedicated_packing == {"big": 8}
        assert "packing" in report.to_text()

    def test_utilization_improvement_exposed(self):
        report = ConsolidationPlanner().plan(services(), 0.01)
        assert report.utilization_improvement > 1.0


class TestSweeps:
    def test_loss_probability_sweep_monotone(self):
        planner = ConsolidationPlanner()
        ns = [
            planner.plan(services(), b).consolidated_servers
            for b in (0.001, 0.01, 0.1)
        ]
        assert ns == sorted(ns, reverse=True)

    def test_workload_scale_sweep_monotone(self):
        reports = ConsolidationPlanner().sweep_workload_scale(
            services(), 0.01, [0.5, 1.0, 2.0, 4.0]
        )
        ms = [r.dedicated_servers for r in reports]
        ns = [r.consolidated_servers for r in reports]
        assert ms == sorted(ms)
        assert ns == sorted(ns)

    def test_scaling_improves_multiplexing(self):
        # Statistical multiplexing: at larger scale, N/M shrinks.
        reports = ConsolidationPlanner().sweep_workload_scale(
            services(), 0.01, [1.0, 10.0]
        )
        ratio_small = reports[0].consolidated_servers / reports[0].dedicated_servers
        ratio_large = reports[1].consolidated_servers / reports[1].dedicated_servers
        assert ratio_large <= ratio_small + 1e-9
