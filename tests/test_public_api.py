"""Public-API surface tests: what downstream users import must exist.

Guards the `repro` top-level namespace and the subpackage exports against
accidental breakage; also sanity-runs the README quickstart snippet.
"""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_classes_exposed(self):
        for name in (
            "ServiceSpec",
            "ModelInputs",
            "ResourceKind",
            "UtilityAnalyticModel",
            "ConsolidationPlanner",
            "DynamicCapacityPlanner",
            "ServerPowerModel",
            "HeterogeneousPool",
        ):
            assert name in repro.__all__


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.queueing",
        "repro.virtualization",
        "repro.cluster",
        "repro.simulation",
        "repro.workloads",
        "repro.analysis",
        "repro.experiments",
        "repro.service",
        "repro.obs",
        "repro.reporting",
    ],
)
class TestSubpackages:
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} lacks a module docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"


class TestReadmeQuickstart:
    def test_snippet_runs_and_matches_claims(self):
        from repro import ConsolidationPlanner, ResourceKind, ServiceSpec

        web = ServiceSpec(
            "web",
            arrival_rate=1200.0,
            service_rates={ResourceKind.CPU: 3360.0, ResourceKind.DISK_IO: 1420.0},
            impact_factors={ResourceKind.CPU: 0.65, ResourceKind.DISK_IO: 0.8},
        )
        db = ServiceSpec(
            "db",
            arrival_rate=80.0,
            service_rates={ResourceKind.CPU: 100.0},
            impact_factors={ResourceKind.CPU: 0.9},
        )
        report = ConsolidationPlanner(
            xen_idle_factor=0.91, xen_workload_factor=0.70
        ).plan([web, db], 0.01)
        assert report.dedicated_servers == 8
        assert report.consolidated_servers == 4
        assert report.infrastructure_saving == pytest.approx(0.5)
        assert report.power_saving == pytest.approx(0.53, abs=0.03)
        assert "M = 8" in report.to_text()


class TestCli:
    def test_list_runs(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig10" in out and "ext-scale" in out

    def test_single_experiment_runs(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_unknown_experiment_raises(self):
        from repro.experiments.runner import main

        with pytest.raises(KeyError):
            main(["fig99"])


class TestExperimentExport:
    def test_export_writes_csv_and_json(self, tmp_path):
        import csv
        import json

        from repro.experiments import run_experiment

        result = run_experiment("table1")
        csv_path, json_path = result.export(tmp_path)
        assert csv_path.exists() and json_path.exists()
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.rows)
        assert rows[0]["M"] == "6"
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "table1"
        assert payload["summary"]["group1_matches_paper"] is True

    def test_cli_output_flag(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()
