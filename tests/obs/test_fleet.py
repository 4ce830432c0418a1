"""Fleet aggregation: scenario economics, deltas, and the FLEET artifact."""

import json

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the test extra
    HAVE_HYPOTHESIS = False

from repro.obs import TraceLog, build_manifest
from repro.reporting.fleet import (
    FLEET,
    FLEET_SCHEMA,
    HOURS_PER_YEAR,
    AuditAssumptions,
    bench_trend,
    build_fleet_artifact,
    build_fleet_summary,
    per_experiment_fidelity,
    scenario_costs,
    scenario_deltas,
)
from repro.reporting.ledger import build_ledger

# Hand-computed fixture: 8 dedicated servers at 2 kW vs 4 consolidated at
# 1 kW, priced at $0.10/kWh, 500 gCO2/kWh, $2400/server over 4 years, for
# one mean year (8766 h).  Dedicated: 17532 kWh, $1753.20 energy, $4800
# capex, $6553.20 total, 8766 kg.  Consolidated is exactly half of each.
FIG12 = {
    "dedicated_servers": 8,
    "consolidated_servers": 4,
    "dedicated_mean_power_W": 2000.0,
    "consolidated_mean_power_W": 1000.0,
}
ASSUMPTIONS = AuditAssumptions(
    price_usd_per_kwh=0.10,
    carbon_g_per_kwh=500.0,
    server_capex_usd=2400.0,
    server_lifetime_years=4.0,
    horizon_hours=HOURS_PER_YEAR,
)


class TestAssumptions:
    def test_defaults_are_recorded_fields(self):
        d = AuditAssumptions().as_dict()
        assert set(d) == {
            "price_usd_per_kwh",
            "carbon_g_per_kwh",
            "server_capex_usd",
            "server_lifetime_years",
            "horizon_hours",
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"price_usd_per_kwh": -0.01},
            {"carbon_g_per_kwh": -1.0},
            {"server_capex_usd": -5.0},
            {"server_lifetime_years": 0.0},
            {"horizon_hours": -1.0},
        ],
    )
    def test_rejects_nonsense(self, kwargs):
        with pytest.raises(ValueError):
            AuditAssumptions(**kwargs)

    def test_from_mapping_roundtrip_and_ignores_extras(self):
        a = AuditAssumptions.from_mapping(
            dict(ASSUMPTIONS.as_dict(), unrelated="x")
        )
        assert a == ASSUMPTIONS
        assert AuditAssumptions.from_mapping(None) == AuditAssumptions()


class TestScenarioMath:
    def test_hand_computed_dedicated_fixture(self):
        scenarios = scenario_costs({"fig12": FIG12}, ASSUMPTIONS)
        ded = scenarios["dedicated"]
        assert ded.servers == 8
        assert ded.energy_kwh == pytest.approx(17532.0)
        assert ded.energy_cost_usd == pytest.approx(1753.20)
        assert ded.capex_usd == pytest.approx(4800.0)
        assert ded.total_cost_usd == pytest.approx(6553.20)
        assert ded.carbon_kg == pytest.approx(8766.0)

    def test_consolidated_is_exactly_half(self):
        scenarios = scenario_costs({"fig12": FIG12}, ASSUMPTIONS)
        ded, con = scenarios["dedicated"], scenarios["consolidated"]
        for field in ("energy_kwh", "energy_cost_usd", "capex_usd",
                      "total_cost_usd", "carbon_kg"):
            assert getattr(con, field) == pytest.approx(getattr(ded, field) / 2)

    def test_hand_computed_delta(self):
        deltas = scenario_deltas(scenario_costs({"fig12": FIG12}, ASSUMPTIONS))
        d = deltas["consolidated_vs_dedicated"]
        assert d["servers_saved"] == 4
        assert d["power_saved_w"] == pytest.approx(1000.0)
        assert d["energy_saved_kwh"] == pytest.approx(8766.0)
        assert d["cost_saved_usd"] == pytest.approx(3276.60)
        assert d["carbon_saved_kg"] == pytest.approx(4383.0)
        assert d["cost_saved_fraction"] == pytest.approx(0.5)

    def test_projected_scenario_from_table1_and_fig11(self):
        summaries = {
            "table1": {"group2_N": 4},
            "fig11": {"consolidated_cpu_util": 0.343},
        }
        scenarios = scenario_costs(summaries, ASSUMPTIONS)
        # 4 servers x P(0.343) = 4 x (250 + 45*0.343) = 1061.74 W
        proj = scenarios["projected"]
        assert proj.servers == 4
        assert proj.mean_power_w == pytest.approx(4 * (250.0 + 45.0 * 0.343))
        assert "analytic" in proj.source

    def test_missing_energy_fields_degrade_with_note(self):
        notes = []
        scenarios = scenario_costs(
            {"fig12": {"power_saving_fraction": 0.53}}, ASSUMPTIONS, notes
        )
        assert "dedicated" not in scenarios
        assert any("predates the energy fields" in n for n in notes)

    def test_empty_summaries_yield_no_scenarios(self):
        notes = []
        assert scenario_costs({}, ASSUMPTIONS, notes) == {}
        assert len(notes) == 2  # fig12 missing + projected inputs missing


if HAVE_HYPOTHESIS:
    finite = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)

    class TestAggregationProperties:
        @settings(max_examples=50, deadline=None)
        @given(
            ded_n=st.integers(min_value=1, max_value=64),
            con_n=st.integers(min_value=1, max_value=64),
            ded_w=finite,
            con_w=finite,
            price=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            carbon=st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
            horizon=st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
        )
        def test_identities_hold(self, ded_n, con_n, ded_w, con_w, price,
                                 carbon, horizon):
            a = AuditAssumptions(
                price_usd_per_kwh=price,
                carbon_g_per_kwh=carbon,
                horizon_hours=horizon,
            )
            fig12 = {
                "dedicated_servers": ded_n,
                "consolidated_servers": con_n,
                "dedicated_mean_power_W": ded_w,
                "consolidated_mean_power_W": con_w,
            }
            scenarios = scenario_costs({"fig12": fig12}, a)
            for s in scenarios.values():
                assert s.energy_kwh == pytest.approx(
                    s.mean_power_w * horizon / 1000.0
                )
                assert s.energy_cost_usd == pytest.approx(s.energy_kwh * price)
                assert s.total_cost_usd == pytest.approx(
                    s.energy_cost_usd + s.capex_usd
                )
                assert s.carbon_kg == pytest.approx(
                    s.energy_kwh * carbon / 1000.0
                )
            ded, con = scenarios["dedicated"], scenarios["consolidated"]
            delta = scenario_deltas(scenarios)["consolidated_vs_dedicated"]
            assert delta["servers_saved"] == ded_n - con_n
            assert delta["cost_saved_usd"] == pytest.approx(
                ded.total_cost_usd - con.total_cost_usd, abs=0.01
            )
            assert delta["carbon_saved_kg"] == pytest.approx(
                ded.carbon_kg - con.carbon_kg, abs=0.1
            )


class TestFidelityAndBench:
    def test_per_experiment_fidelity_grid(self):
        doc = {
            "verdicts": [
                {"experiment": "fig12", "verdict": "match"},
                {"experiment": "fig12", "verdict": "drift"},
                {"experiment": "fig13", "verdict": "fail"},
                {"experiment": "fig13", "verdict": "match"},
            ]
        }
        grid = per_experiment_fidelity(doc)
        assert grid["fig12"] == {"match": 1, "drift": 1, "fail": 0,
                                 "overall": "drift"}
        assert grid["fig13"]["overall"] == "fail"
        assert per_experiment_fidelity(None) == {}

    def test_bench_trend_series(self):
        docs = [
            {
                "created_utc": "2026-08-01T00:00:00+00:00",
                "benchmarks": [
                    {"name": "a", "ok": True, "wall_s": {"median": 1.0}},
                    {"name": "b", "ok": False, "wall_s": {"median": 9.0}},
                ],
            },
            {
                "created_utc": "2026-08-02T00:00:00+00:00",
                "benchmarks": [
                    {"name": "a", "ok": True, "wall_s": {"median": 0.5}},
                ],
            },
        ]
        trend = bench_trend(docs)
        assert trend["points"] == 2
        assert trend["median_wall_s"] == {"a": [1.0, 0.5]}


def _ledger_dir(tmp_path, name="d", summaries=None, manifest=None):
    d = tmp_path / name
    d.mkdir()
    if manifest is not None:
        (d / "run_manifest.json").write_text(json.dumps(manifest))
    for exp, summary in (summaries or {}).items():
        (d / f"{exp}.json").write_text(
            json.dumps(
                {"experiment": exp, "title": exp, "summary": summary, "rows": 1}
            )
        )
    return d


class TestFleetSummary:
    def test_aggregates_measured_and_projected(self, tmp_path):
        d = _ledger_dir(
            tmp_path,
            summaries={
                "fig12": FIG12,
                "fig11": {"consolidated_cpu_util": 0.343},
                "table1": {"group2_N": 4},
            },
            manifest=build_manifest({"tool": "t"}, seed=2009),
        )
        summary = build_fleet_summary(build_ledger([d]), ASSUMPTIONS)
        assert set(summary["scenarios"]) == {
            "dedicated", "consolidated", "projected"
        }
        assert set(summary["deltas"]) == {
            "consolidated_vs_dedicated",
            "projected_vs_dedicated",
            "consolidated_vs_projected",
        }
        assert summary["decision"]["recommendation"] == "consolidated"
        assert "Consolidate" in summary["decision"]["headline"]
        assert summary["seeds"] == [2009]

    def test_mixed_env_results_excluded_with_warning(self, tmp_path):
        m1 = build_manifest({"tool": "t"}, seed=1)
        m2 = build_manifest({"tool": "t"}, seed=2)
        m2["environment"] = dict(m2["environment"], git_sha="othermachine")
        a = _ledger_dir(
            tmp_path, "a",
            summaries={"fig12": FIG12, "fig11": {"consolidated_cpu_util": 0.3},
                       "table1": {"group2_N": 4}},
            manifest=m1,
        )
        b = _ledger_dir(
            tmp_path, "b", summaries={"fig10": {"x": 1.0}}, manifest=m2
        )
        trace = TraceLog()
        summary = build_fleet_summary(
            build_ledger([a, b]), ASSUMPTIONS, trace=trace
        )
        assert [e["experiment"] for e in summary["excluded"]] == ["fig10"]
        assert any(
            e.name == "fleet_env_mismatch" and e.kind == "warning"
            for e in trace.events()
        )
        # the dominant-environment results still price normally
        assert "dedicated" in summary["scenarios"]

    def test_no_fig12_yields_insufficient_data_decision(self, tmp_path):
        d = _ledger_dir(tmp_path, summaries={"fig10": {"x": 1.0}})
        summary = build_fleet_summary(build_ledger([d]), ASSUMPTIONS)
        assert summary["decision"]["recommendation"] is None
        assert "insufficient data" in summary["decision"]["headline"]


class TestFleetArtifact:
    def _artifact(self, tmp_path):
        d = _ledger_dir(
            tmp_path,
            summaries={"fig12": FIG12},
            manifest=build_manifest({"tool": "t"}, seed=2009),
        )
        ledger = build_ledger([d])
        summary = build_fleet_summary(ledger, ASSUMPTIONS)
        return build_fleet_artifact(
            summary, ledger, git_sha="abc123",
            created_utc="2026-08-08T00:00:00+00:00",
        )

    def test_build_and_validate(self, tmp_path):
        doc = self._artifact(tmp_path)
        FLEET.validate(doc)
        assert doc["schema"] == FLEET_SCHEMA
        assert doc["ledger"]["counts"]["result"] == 1
        assert len(doc["inputs_hash"]) == 64

    def test_inputs_hash_covers_runs_not_assumptions(self, tmp_path):
        d = _ledger_dir(tmp_path, summaries={"fig12": FIG12})
        ledger = build_ledger([d])
        doc_a = build_fleet_artifact(
            build_fleet_summary(ledger, ASSUMPTIONS), ledger, git_sha="x"
        )
        doc_b = build_fleet_artifact(
            build_fleet_summary(ledger, AuditAssumptions()), ledger, git_sha="x"
        )
        assert doc_a["inputs_hash"] == doc_b["inputs_hash"]
        assert doc_a["assumptions"] != doc_b["assumptions"]

    def test_write_load_roundtrip_append_only(self, tmp_path):
        doc = self._artifact(tmp_path)
        p1 = FLEET.write(doc, tmp_path)
        p2 = FLEET.write(doc, tmp_path)
        assert p1 != p2  # append-only: never clobbers
        assert p1.name.startswith("FLEET_20260808_abc123")
        loaded = FLEET.load(p1)
        assert loaded["scenarios"] == doc["scenarios"]

    def test_validation_failures(self, tmp_path):
        with pytest.raises(ValueError, match="unexpected schema"):
            FLEET.validate({"schema": "repro.fleet/v99"})
        doc = self._artifact(tmp_path)
        del doc["decision"]
        with pytest.raises(ValueError, match="missing 'decision'"):
            FLEET.validate(doc)
        bad = tmp_path / "FLEET_bad.json"
        bad.write_text("{ nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            FLEET.load(bad)
        with pytest.raises(FileNotFoundError):
            FLEET.load(tmp_path / "absent.json")
