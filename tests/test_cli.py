"""Tests for the repro-plan CLI."""

import json

import pytest

from repro.cli import DeploymentError, main, parse_deployment

VALID_DOC = {
    "loss_probability": 0.01,
    "services": [
        {
            "name": "web",
            "arrival_rate": 1200.0,
            "service_rates": {"cpu": 3360.0, "disk_io": 1420.0},
            "impact_factors": {"cpu": 0.65, "disk_io": 0.8},
        },
        {
            "name": "db",
            "arrival_rate": 80.0,
            "service_rates": {"cpu": 100.0},
            "impact_factors": {"cpu": 0.9},
            "loss_probability": 0.001,
        },
    ],
    "xen_idle_factor": 0.91,
    "xen_workload_factor": 0.70,
}


def write(tmp_path, doc):
    path = tmp_path / "deployment.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseDeployment:
    def test_valid_document(self):
        inputs, targets, planner = parse_deployment(VALID_DOC)
        assert {s.name for s in inputs.services} == {"web", "db"}
        assert targets == {"db": 0.001}
        assert planner.xen_idle_factor == 0.91

    def test_missing_services(self):
        with pytest.raises(DeploymentError):
            parse_deployment({"loss_probability": 0.01, "services": []})

    def test_missing_loss_probability(self):
        with pytest.raises(DeploymentError):
            parse_deployment({"services": VALID_DOC["services"]})

    def test_unknown_resource(self):
        doc = {
            "loss_probability": 0.01,
            "services": [
                {"name": "x", "arrival_rate": 1.0, "service_rates": {"gpu": 1.0}}
            ],
        }
        with pytest.raises(DeploymentError, match="gpu"):
            parse_deployment(doc)

    def test_invalid_service_values(self):
        doc = {
            "loss_probability": 0.01,
            "services": [
                {"name": "x", "arrival_rate": -1.0, "service_rates": {"cpu": 1.0}}
            ],
        }
        with pytest.raises(DeploymentError):
            parse_deployment(doc)


class TestMain:
    def test_text_output(self, tmp_path, capsys):
        assert main([write(tmp_path, VALID_DOC)]) == 0
        out = capsys.readouterr().out
        assert "M = 8" in out
        assert "N = 4" in out
        assert "Consolidated servers under targets: 5" in out

    def test_json_output(self, tmp_path, capsys):
        assert main([write(tmp_path, VALID_DOC), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dedicated_servers"] == 8
        assert doc["consolidated_servers"] == 4
        assert doc["consolidated_servers_with_targets"] == 5
        assert doc["load_model"] == "paper"

    def test_offered_mode_more_conservative(self, tmp_path, capsys):
        assert main([write(tmp_path, VALID_DOC), "--load-model", "offered", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["consolidated_servers"] == 6

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main([str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert main([str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_semantic_error(self, tmp_path, capsys):
        doc = dict(VALID_DOC, loss_probability=2.0)
        assert main([write(tmp_path, doc)]) == 2
        assert "error" in capsys.readouterr().err

    def test_example_file_is_valid(self, capsys):
        assert main(["examples/deployment.json"]) == 0


class TestObservability:
    def test_metrics_and_trace_exports(self, tmp_path, capsys):
        metrics = tmp_path / "plan.prom"
        trace = tmp_path / "plan.jsonl"
        code = main(
            [
                write(tmp_path, VALID_DOC),
                "--json",
                "--metrics-out",
                str(metrics),
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        # The report itself is unchanged by observability.
        doc = json.loads(capsys.readouterr().out)
        assert doc["dedicated_servers"] == 8
        text = metrics.read_text()
        assert "erlang_inversion_calls_total" in text
        assert 'model_solves_total{load_model="paper"}' in text
        lines = [json.loads(l) for l in trace.read_text().strip().splitlines()]
        assert [l["kind"] for l in lines] == ["span_begin", "span_end"]
        assert lines[0]["name"] == "plan"
        assert lines[1]["load_model"] == "paper"

    def test_offered_mode_metrics_label(self, tmp_path, capsys):
        metrics = tmp_path / "plan.prom"
        code = main(
            [
                write(tmp_path, VALID_DOC),
                "--load-model",
                "offered",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert 'model_solves_total{load_model="offered"} 1' in metrics.read_text()

    def test_no_flags_no_files(self, tmp_path, capsys):
        assert main([write(tmp_path, VALID_DOC)]) == 0
        capsys.readouterr()
        assert not (tmp_path / "plan.prom").exists()

    def test_profile_out_writes_hotspot_report(self, tmp_path, capsys):
        profile = tmp_path / "plan_profile.json"
        assert main([write(tmp_path, VALID_DOC), "--profile-out", str(profile)]) == 0
        capsys.readouterr()
        doc = json.loads(profile.read_text())
        assert doc["schema"] == "repro.profile/v1"
        assert doc["spans"] == [
            {
                "name": "plan",
                "deployment": str(tmp_path / "deployment.json"),
                "load_model": "paper",
            }
        ]
        functions = [row["function"] for row in doc["hotspots"]]
        assert any("solve" in f for f in functions)
        assert doc["allocations"]["peak_bytes"] > 0


class TestOutputPathErrors:
    """Exports into an impossible parent fail with a message, not a traceback."""

    @pytest.mark.parametrize("flag", ["--metrics-out", "--trace-out", "--profile-out"])
    def test_parent_is_a_file(self, tmp_path, capsys, flag):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        target = blocker / "sub" / "out.file"
        assert main([write(tmp_path, VALID_DOC), flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert "cannot write observability output" in err

    def test_missing_parent_is_created(self, tmp_path, capsys):
        target = tmp_path / "fresh" / "dir" / "m.prom"
        assert main([write(tmp_path, VALID_DOC), "--metrics-out", str(target)]) == 0
        capsys.readouterr()
        assert target.exists()


class TestControlPreview:
    def test_text_mode_renders_the_preview_block(self, tmp_path, capsys):
        assert main([write(tmp_path, VALID_DOC), "--control"]) == 0
        out = capsys.readouterr().out
        assert "Dynamic consolidation preview" in out
        assert "static peak fleet" in out
        assert "boots" in out and "migrations" in out
        # The example fleet is tiny, so headroom dominates: the preview
        # must say so rather than hide a negative saving.
        assert "note" in out

    def test_json_mode_attaches_control_preview(self, tmp_path, capsys):
        assert main([write(tmp_path, VALID_DOC), "--control", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        preview = doc["control_preview"]
        assert preview["static_peak_servers"] >= 1
        assert preview["static_server_hours_per_day"] > 0
        assert preview["reactive_server_hours_per_day"] > 0
        assert preview["boots"] >= 0 and preview["shutdowns"] >= 0
        if preview["saving_pct"] <= 0:
            assert "note" in preview

    def test_preview_is_deterministic(self, tmp_path, capsys):
        assert main([write(tmp_path, VALID_DOC), "--control", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)["control_preview"]
        assert main([write(tmp_path, VALID_DOC), "--control", "--json"]) == 0
        again = json.loads(capsys.readouterr().out)["control_preview"]
        assert first == again

    def test_without_flag_no_preview(self, tmp_path, capsys):
        assert main([write(tmp_path, VALID_DOC), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "control_preview" not in doc
