"""The experiment runner's observability flags export valid artifacts."""

import json

import pytest

from repro.experiments.runner import main
from repro.obs import (
    MANIFEST_SCHEMA,
    get_registry,
    get_trace,
    inputs_hash,
    load_fidelity_artifact,
)
from repro.obs import fidelity as fidelity_mod


@pytest.fixture
def run_table1(tmp_path, capsys):
    def run(*extra_args):
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["table1", "--metrics-out", str(metrics), "--trace-out", str(trace)]
            + list(extra_args)
        )
        capsys.readouterr()
        assert code == 0
        return metrics, trace, tmp_path / "run_manifest.json"

    return run


class TestObservedRun:
    def test_writes_prometheus_snapshot(self, run_table1):
        metrics, _, _ = run_table1()
        text = metrics.read_text()
        assert "# TYPE erlang_inversion_calls_total counter" in text
        assert "# TYPE model_solve_seconds histogram" in text
        assert 'model_solves_total{load_model="paper"}' in text

    def test_trace_has_span_per_experiment(self, run_table1):
        _, trace, _ = run_table1()
        docs = [json.loads(line) for line in trace.read_text().strip().splitlines()]
        begins = [d for d in docs if d["kind"] == "span_begin"]
        ends = [d for d in docs if d["kind"] == "span_end"]
        assert {d["experiment"] for d in begins} == {"table1"}
        assert len(begins) == len(ends) == 1
        assert ends[0]["duration_s"] > 0.0
        assert ends[0]["rows"] > 0

    def test_manifest_written_next_to_outputs(self, run_table1):
        _, _, manifest_path = run_table1()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["inputs"]["experiments"] == ["table1"]
        assert manifest["inputs_hash"] == inputs_hash(manifest["inputs"])
        assert manifest["seed"] == 2009
        assert manifest["wall_time_s"] > 0.0
        assert "erlang_inversion_calls_total" in manifest["metrics"]
        assert manifest["trace"]["events"] >= 2

    def test_manifest_prefers_output_dir(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["table1", "--seed", "3", "--output", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 3
        assert (out / "table1.csv").exists()

    def test_globals_restored_after_run(self, run_table1):
        run_table1()
        assert not get_registry().enabled
        assert not get_trace().enabled

    def test_manifest_records_audit_assumptions_outside_inputs_hash(
        self, tmp_path, capsys
    ):
        out = tmp_path / "artifacts"
        assert (
            main(
                ["table1", "--output", str(out),
                 "--price-usd-per-kwh", "0.25"]
            )
            == 0
        )
        capsys.readouterr()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["audit"]["price_usd_per_kwh"] == 0.25
        assert manifest["audit"]["carbon_g_per_kwh"] == 400.0
        # provenance, not identity: like 'parallel', the assumptions sit
        # outside the hashed inputs
        assert "audit" not in manifest["inputs"]
        assert manifest["inputs_hash"] == inputs_hash(manifest["inputs"])

    def test_invalid_audit_assumption_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--output", str(tmp_path),
                  "--price-usd-per-kwh", "-1"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err


class TestFleetOut:
    """The FLEET_*.json companion ``--report-out`` writes beside the report."""

    def test_fleet_out_writes_dashboard_and_artifact(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        report = out / "report.html"
        code = main(
            ["fig11", "fig12", "fig13", "table1",
             "--output", str(out), "--report-out", str(report)]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "report:" in err and "fleet artifact:" in err
        html = report.read_text()
        assert "Executive summary" in html and "Run ledger" in html
        assert "Consolidate:" in html
        assert "<script" not in html
        assert "http" + "://" not in html
        (fleet_json,) = out.glob("FLEET_*.json")
        doc = json.loads(fleet_json.read_text())
        assert doc["schema"] == "repro.fleet/v1"
        # live fig12 run supplies the measured fleets
        assert {"dedicated", "consolidated", "projected"} <= set(
            doc["scenarios"]
        )
        assert doc["decision"]["recommendation"] == "consolidated"

    def test_fleet_out_respects_assumption_flags(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = main(
            ["fig12", "--output", str(out),
             "--report-out", str(out / "report.html"),
             "--carbon-g-per-kwh", "100"]
        )
        capsys.readouterr()
        assert code == 0
        (fleet_json,) = out.glob("FLEET_*.json")
        doc = json.loads(fleet_json.read_text())
        assert doc["assumptions"]["carbon_g_per_kwh"] == 100.0


class TestUnobservedRun:
    def test_plain_run_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["table1"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


class TestProfileOut:
    def test_writes_hotspot_report_and_manifest(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        assert main(["table1", "--profile-out", str(profile)]) == 0
        capsys.readouterr()
        doc = json.loads(profile.read_text())
        assert doc["schema"] == "repro.profile/v1"
        assert doc["spans"] == [{"name": "experiment", "experiment": "table1"}]
        assert doc["hotspots"]
        # The profile file's directory doubles as the manifest fallback.
        assert (tmp_path / "run_manifest.json").exists()

    def test_unwritable_profile_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["table1", "--profile-out", str(blocker / "x" / "p.json")]) == 1
        assert "cannot write observability output" in capsys.readouterr().err


class TestFidelity:
    def test_observed_run_writes_fidelity_artifact(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["table1", "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert "fidelity: match" in captured.out
        artifacts = sorted(out.glob("FIDELITY_*.json"))
        assert len(artifacts) == 1
        doc = load_fidelity_artifact(artifacts[0])
        assert doc["overall"] == "match"
        assert doc["inputs"] == {"seed": 2009, "full": False}
        assert {v["experiment"] for v in doc["verdicts"]} == {"table1"}

    def test_rerun_appends_second_artifact(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["table1", "--output", str(out)]) == 0
        assert main(["table1", "--output", str(out)]) == 0
        capsys.readouterr()
        assert len(list(out.glob("FIDELITY_*.json"))) == 2

    def test_scoreboard_printed_without_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["table1"]) == 0
        assert "fidelity: match" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []  # unobserved: nothing written

    def test_fail_on_fidelity_gates_exit_code(self, tmp_path, capsys, monkeypatch):
        # Sneak an impossible expectation in so table1 grades as fail.
        monkeypatch.setitem(
            fidelity_mod._EXPECTATIONS,
            "table1",
            fidelity_mod.expectations_for("table1")
            + (fidelity_mod.Expectation("group1_N", -1),),
        )
        monkeypatch.chdir(tmp_path)
        assert main(["table1"]) == 0  # report-only by default
        assert main(["table1", "--fail-on-fidelity"]) == 1
        assert "fidelity gate failed" in capsys.readouterr().err


class TestReportOut:
    def test_report_fuses_all_sections(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        report = out / "report.html"
        code = main(
            [
                "table1",
                "--output",
                str(out),
                "--trace-out",
                str(out / "trace.jsonl"),
                "--report-out",
                str(report),
            ]
        )
        capsys.readouterr()
        assert code == 0
        html = report.read_text()
        assert "Fidelity scoreboard" in html and "badge-match" in html
        assert "repro.run-manifest/v1" in html  # manifest section
        assert "model_solves_total" in html  # metric snapshot
        assert "Span tree" in html  # live trace events
        assert "group1_matches_paper" in html  # experiment summaries
        assert "<script" not in html

    def test_report_out_alone_enables_observability(self, tmp_path, capsys):
        report = tmp_path / "sub" / "report.html"
        assert main(["table1", "--report-out", str(report)]) == 0
        capsys.readouterr()
        assert report.exists()
        # The report directory doubles as the manifest/fidelity fallback.
        assert (tmp_path / "sub" / "run_manifest.json").exists()
        assert list((tmp_path / "sub").glob("FIDELITY_*.json"))

    def test_unwritable_report_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(
            [
                "table1",
                "--output",
                str(tmp_path / "out"),
                "--report-out",
                str(blocker / "x" / "report.html"),
            ]
        )
        assert code == 1
        assert "cannot write observability output" in capsys.readouterr().err


class TestProgress:
    def test_progress_emits_summary_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[progress] done: 1/1 experiments" in err
        # --progress alone enables observability but writes no files.
        assert list(tmp_path.iterdir()) == []

    def test_progress_with_manifest(self, run_table1, capsys):
        metrics, _, manifest_path = run_table1("--progress")
        assert metrics.exists()
        assert manifest_path.exists()
