"""Executive fleet sections of the run report and their repro-report CLI."""

import json

from repro.obs import build_manifest
from repro.reporting.fleet import (
    FLEET,
    AuditAssumptions,
    build_fleet_artifact,
    build_fleet_summary,
)
from repro.reporting.ledger import build_ledger
from repro.reporting.report import render_report
from repro.reporting.reportcli import main

FIG12 = {
    "dedicated_servers": 8,
    "consolidated_servers": 4,
    "dedicated_mean_power_W": 2000.0,
    "consolidated_mean_power_W": 1000.0,
}


def _populate(d, *, with_bench=True):
    d.mkdir(parents=True, exist_ok=True)
    (d / "run_manifest.json").write_text(
        json.dumps(build_manifest({"tool": "t"}, seed=2009))
    )
    for exp, summary in {
        "fig12": FIG12,
        "fig11": {"consolidated_cpu_util": 0.343},
        "table1": {"group2_N": 4},
    }.items():
        (d / f"{exp}.json").write_text(
            json.dumps(
                {"experiment": exp, "title": exp, "summary": summary, "rows": 1}
            )
        )
    if with_bench:
        for day, median in (("01", 0.010), ("02", 0.008)):
            (d / f"BENCH_202608{day}_abc.json").write_text(
                json.dumps(
                    {
                        "schema": "repro.bench/v1",
                        "created_utc": f"2026-08-{day}T00:00:00+00:00",
                        "git_sha": "abc",
                        "model_version": "1.0.0",
                        "environment": {"python": "3"},
                        "inputs_hash": "0" * 64,
                        "config": {"warmup": 0, "repeats": 2},
                        "benchmarks": [
                            {
                                "name": "bench-a",
                                "group": "g",
                                "source": "t",
                                "ok": True,
                                "repeats": 2,
                                "wall_s": {"median": median},
                                "cpu_s": {"median": median},
                            }
                        ],
                    }
                )
            )
    return d


def _fleet(ledger, assumptions=None):
    return build_fleet_artifact(
        build_fleet_summary(ledger, assumptions),
        ledger,
        git_sha="abc123",
        created_utc="2026-08-08T00:00:00+00:00",
    )


def _render(ledger):
    fleet = _fleet(ledger, AuditAssumptions())
    return fleet, render_report(fleet=fleet, bench_docs=ledger.bench_docs())


def _scan(tmp_path, **kwargs):
    return build_ledger([_populate(tmp_path / "results", **kwargs)])


class TestRenderer:
    def test_sections_present(self, tmp_path):
        _, html = _render(_scan(tmp_path))
        for heading in (
            "Executive summary",
            "Audit assumptions",
            "Fidelity scoreboard",
            "Performance trajectory",
            "Run ledger",
        ):
            assert f"<h2>{heading}</h2>" in html
        assert "Consolidate" in html
        assert "electricity price ($/kWh)" in html
        # consolidated total: 4 x $625 amortized capex + 8,766 kWh at $0.12
        assert "$3,551.92" in html

    def test_dashboard_is_self_contained(self, tmp_path):
        _, html = _render(_scan(tmp_path))
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "http://" not in html
        assert "https://" not in html
        assert "<link" not in html
        assert 'src="' not in html  # no external images

    def test_bench_sparkline_rendered_inline(self, tmp_path):
        _, html = _render(_scan(tmp_path))
        assert "<svg" in html and "polyline" in html
        assert "bench-a" in html
        assert "-20.0%" in html  # 8 ms vs 10 ms first point

    def test_no_bench_artifacts_degrades(self, tmp_path):
        _, html = _render(_scan(tmp_path, with_bench=False))
        assert "No BENCH_*.json artifacts" in html

    def test_renders_excluded_and_skipped(self, tmp_path):
        d = _populate(tmp_path / "results")
        (d / "broken.json").write_text("{ nope")
        other = tmp_path / "other"
        other.mkdir()
        manifest = build_manifest({"tool": "t"}, seed=1)
        manifest["environment"] = {**manifest["environment"], "python": "0.0"}
        (other / "run_manifest.json").write_text(json.dumps(manifest))
        (other / "fig13.json").write_text(
            json.dumps({"experiment": "fig13", "summary": {"x": 1}})
        )
        _, html = _render(build_ledger([d, other]))
        assert "skipped during discovery" in html
        assert "truncated or invalid JSON" in html
        assert "1 result(s) excluded" in html
        assert "fig13" in html

    def test_render_direct_from_loaded_artifact(self, tmp_path):
        fleet, _ = _render(_scan(tmp_path))
        path = tmp_path / "FLEET.json"
        path.write_text(json.dumps(fleet))
        html = render_report(fleet=FLEET.load(path), title="custom title")
        assert "custom title" in html
        assert "runs hash" in html
        assert "Executive summary" in html


class TestFleetCli:
    def test_end_to_end(self, tmp_path, capsys):
        _populate(tmp_path / "results")
        out = tmp_path / "fleet.html"
        rc = main(["--results", str(tmp_path / "results"), "--out", str(out)])
        assert rc == 0
        html = out.read_text()
        assert "<script" not in html and "http" + "://" not in html
        assert "Executive summary" in html and "Run manifest" in html
        captured = capsys.readouterr()
        assert "report:" in captured.out
        assert "fleet artifact:" in captured.out
        assert "Consolidate:" in captured.out
        fleet_jsons = list(out.parent.glob("FLEET_*.json"))
        assert len(fleet_jsons) == 1
        doc = FLEET.load(fleet_jsons[0])
        FLEET.validate(doc)
        assert doc["decision"]["recommendation"] == "consolidated"

    def test_custom_assumptions_flow_into_artifact(self, tmp_path, capsys):
        _populate(tmp_path / "results")
        out = tmp_path / "fleet.html"
        rc = main(
            [
                "--results", str(tmp_path / "results"),
                "--out", str(out),
                "--price-usd-per-kwh", "0.30",
                "--carbon-g-per-kwh", "50",
            ]
        )
        assert rc == 0
        (fleet_json,) = out.parent.glob("FLEET_*.json")
        doc = FLEET.load(fleet_json)
        assert doc["assumptions"]["price_usd_per_kwh"] == 0.30
        assert doc["assumptions"]["carbon_g_per_kwh"] == 50.0
        assert "$0.3/kWh" in capsys.readouterr().out

    def test_empty_directory_one_line_error(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        rc = main(
            ["--results", str(empty), "--scan", str(empty),
             "--out", str(tmp_path / "fleet.html")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no run artifacts under")
        assert len(err.strip().splitlines()) == 1
        assert "repro-experiments" in err
        assert "Traceback" not in err
        assert not (tmp_path / "fleet.html").exists()

    def test_invalid_assumption_one_line_error(self, tmp_path, capsys):
        rc = main(["--price-usd-per-kwh", "-1", "--out", str(tmp_path / "f.html")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be non-negative" in err
        assert not (tmp_path / "f.html").exists()
