"""Self-contained HTML run report: renderer, sparklines, and the CLI."""

import json

import pytest

from repro.obs import build_ledger, render_report, write_report
from repro.obs.bench import BenchResult, build_artifact
from repro.obs.fidelity import (
    Expectation,
    Scoreboard,
    build_fidelity_artifact,
    check_expectations,
)
from repro.obs.report import _span_tree, _sparkline, main


def _fidelity_doc(overall="match"):
    actual = {"m": 1.0} if overall == "match" else {"m": 9.0}
    board = Scoreboard(
        verdicts=tuple(
            check_expectations("e1", actual, [Expectation("m", 1.0, abs_tol=0.1)])
        )
    )
    return build_fidelity_artifact(
        board, git_sha="abc", created_utc="2026-08-06T00:00:00+00:00"
    )


def _bench_doc(created="2026-08-06T00:00:00+00:00"):
    result = BenchResult(
        name="bench-a", group="g", source="t", wall_s=[0.01, 0.02], cpu_s=[0.01, 0.02]
    )
    return build_artifact(
        [result], warmup=0, repeats=2, git_sha="abc", created_utc=created
    )


class TestRenderReport:
    def test_all_sections_present_even_when_empty(self):
        html = render_report(generated_utc="2026-08-06T00:00:00+00:00")
        for heading in (
            "Fidelity scoreboard",
            "Run manifest",
            "Metrics",
            "Trace summary",
            "Performance trajectory",
            "Experiment results",
        ):
            assert f"<h2>{heading}</h2>" in html
        assert "No fidelity data available" in html
        assert "No run manifest available" in html

    def test_self_contained(self):
        html = render_report(fidelity_doc=_fidelity_doc(), bench_docs=[_bench_doc()])
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert "<style>" in html

    def test_fidelity_badges(self):
        html = render_report(fidelity_doc=_fidelity_doc("fail"))
        assert '<span class="badge badge-fail">fail</span>' in html
        html = render_report(fidelity_doc=_fidelity_doc("match"))
        assert '<span class="badge badge-match">match</span>' in html

    def test_manifest_section_uses_manifest_metrics_and_trace(self):
        manifest = {
            "schema": "repro.run-manifest/v1",
            "seed": 7,
            "environment": {"git_sha": "cafe1234"},
            "metrics": {
                "solves_total": {
                    "kind": "counter",
                    "series": [{"labels": {"svc": "web"}, "value": 3}],
                }
            },
            "trace": {"events": 4, "emitted": 4, "dropped": 0, "capacity": 4096},
        }
        html = render_report(manifest=manifest)
        assert "commit cafe1234" in html
        assert "solves_total" in html and "svc=web" in html
        assert "capacity" in html

    def test_trace_dropped_events_warn(self):
        html = render_report(
            trace_stats={"events": 2, "emitted": 10, "dropped": 8, "capacity": 2}
        )
        assert "dropped 8" in html

    def test_trace_warning_events_surface(self):
        events = [
            {"ts": 1.0, "kind": "warning", "name": "stall", "idle_s": 31.0},
        ]
        html = render_report(trace_events=events)
        assert "1 warning event(s)" in html and "stall" in html

    def test_results_section_lists_summaries(self):
        html = render_report(
            results=[
                {"experiment": "e1", "title": "T", "summary": {"k": 1.5}},
            ]
        )
        assert "e1" in html and "1.5" in html

    def test_bench_trend_has_sparkline(self):
        docs = [
            _bench_doc("2026-08-04T00:00:00+00:00"),
            _bench_doc("2026-08-05T00:00:00+00:00"),
            _bench_doc("2026-08-06T00:00:00+00:00"),
        ]
        html = render_report(bench_docs=docs)
        assert "3 artifact(s)" in html
        assert '<svg class="spark"' in html


def _series_doc(name="pool.busy_servers", labels=None, values=(1.0, 9.0, 2.0)):
    return {
        "schema": "repro.timeseries/v1",
        "kind": "series",
        "series": name,
        "labels": labels or {"pool": "p"},
        "agg": "gauge",
        "t0": 0.0,
        "bucket_width": 1.0,
        "buckets": len(values),
        "decimations": 0,
        "values": list(values),
    }


def _alarm_doc(state="fire", t=2.0):
    return {
        "schema": "repro.timeseries/v1",
        "kind": "alarm",
        "rule": "hot",
        "alarm_kind": "overload",
        "state": state,
        "t": t,
        "value": 9.0,
        "threshold": 8.0,
        "series": "pool.busy_servers",
        "labels": {"pool": "p"},
    }


class TestTimelineSection:
    def test_renders_charts_and_alarm_table(self):
        html = render_report(
            timeseries_docs=[_series_doc(), _alarm_doc(), _alarm_doc("clear", 3.0)]
        )
        assert "<h2>Telemetry timeline</h2>" in html
        assert "pool.busy_servers" in html
        assert "<svg" in html
        assert "Alarm transitions" in html
        assert "badge-fail" in html  # fire
        assert "badge-match" in html  # clear

    def test_absent_docs_render_no_section(self):
        html = render_report()
        assert "Telemetry timeline" not in html
        html = render_report(timeseries_docs=[])
        assert "Telemetry timeline" not in html

    def test_alarm_markers_only_on_matching_series(self):
        other = _series_doc(name="pool.occupancy", labels={"pool": "p"})
        html = render_report(timeseries_docs=[other, _alarm_doc()])
        # The alarm doc targets busy_servers; occupancy gets no marker line.
        assert "<title>hot fire" not in html

    def test_chart_cap_truncates(self):
        docs = [
            _series_doc(name=f"s{i:03d}", labels={}) for i in range(30)
        ]
        html = render_report(timeseries_docs=docs)
        assert "more series not charted" in html

    def test_self_contained_with_timeline(self):
        html = render_report(
            timeseries_docs=[_series_doc(), _alarm_doc()]
        )
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html


class TestSparkline:
    def test_polyline_over_values(self):
        svg = _sparkline([1.0, 2.0, 3.0])
        assert svg.startswith("<svg") and "polyline" in svg

    def test_constant_series_does_not_divide_by_zero(self):
        assert "polyline" in _sparkline([2.0, 2.0, 2.0])

    def test_short_or_nan_series_degrade_gracefully(self):
        assert "svg" not in _sparkline([1.0])
        assert "svg" not in _sparkline([])
        assert "polyline" in _sparkline([1.0, float("nan"), 3.0])


class TestSpanTree:
    def test_nesting_and_durations(self):
        events = [
            {"kind": "span_begin", "name": "outer", "span": 1},
            {"kind": "span_begin", "name": "inner", "span": 2},
            {"kind": "span_end", "name": "inner", "span": 2, "duration_s": 0.5},
            {"kind": "span_end", "name": "outer", "span": 1, "duration_s": 1.0},
        ]
        roots = _span_tree(events)
        assert len(roots) == 1
        assert roots[0]["name"] == "outer"
        assert roots[0]["duration_s"] == 1.0
        assert roots[0]["children"][0]["name"] == "inner"

    def test_unbalanced_end_ignored(self):
        assert _span_tree([{"kind": "span_end", "name": "x"}]) == []

    def test_open_span_kept_without_duration(self):
        roots = _span_tree([{"kind": "span_begin", "name": "x"}])
        assert roots[0]["duration_s"] is None


class TestCli:
    @pytest.fixture
    def results_dir(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "e1.json").write_text(
            json.dumps(
                {"experiment": "e1", "title": "T", "summary": {"m": 1.0}}
            )
        )
        return results

    def test_report_from_artifacts_without_rerunning(self, results_dir, tmp_path, capsys):
        fid = _fidelity_doc()
        (results_dir / "FIDELITY_20260806_abc.json").write_text(json.dumps(fid))
        out = tmp_path / "report.html"
        assert main(["--results", str(results_dir), "--out", str(out)]) == 0
        html = out.read_text()
        assert "badge-match" in html
        assert "e1" in html
        assert "report:" in capsys.readouterr().out

    def test_timeseries_auto_discovered(self, results_dir, tmp_path, capsys):
        (results_dir / "timeseries.jsonl").write_text(
            json.dumps(_series_doc()) + "\n" + json.dumps(_alarm_doc()) + "\n"
        )
        out = tmp_path / "report.html"
        assert main(["--results", str(results_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        html = out.read_text()
        assert "<h2>Telemetry timeline</h2>" in html
        assert "pool.busy_servers" in html

    def test_no_timeseries_degrades_without_error(
        self, results_dir, tmp_path, capsys
    ):
        out = tmp_path / "report.html"
        assert main(["--results", str(results_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        assert "Telemetry timeline" not in out.read_text()

    def test_foreign_jsonl_skipped_silently(self, results_dir, tmp_path, capsys):
        (results_dir / "trace.jsonl").write_text('{"kind": "span_begin"}\n')
        out = tmp_path / "report.html"
        assert main(["--results", str(results_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        assert "Telemetry timeline" not in out.read_text()

    def test_service_section_from_discovered_access_log(self, tmp_path, capsys):
        from repro.service.accesslog import AccessLog

        state = tmp_path / "svc"
        log = AccessLog(state / "access.jsonl")
        for i, latency in enumerate((1.0, 2.0, 3.0, 4.0)):
            log.log_request(
                request_id=f"r{i}", method="POST", path="/plan",
                endpoint="plan", status=200, latency_ms=latency, t=0.5 * i,
            )
        log.close()
        out = tmp_path / "r.html"
        assert main(["--results", str(state), "--out", str(out)]) == 0
        capsys.readouterr()
        html = out.read_text()
        assert "<h2>Service</h2>" in html
        assert "2.000" in html  # nearest-rank p50 of 1..4 ms

    def test_explicit_missing_timeseries_is_input_error(
        self, results_dir, tmp_path, capsys
    ):
        code = main([
            "--results", str(results_dir),
            "--timeseries", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "r.html"),
        ])
        assert code == 2
        assert "timeseries" in capsys.readouterr().err

    def test_missing_results_dir_is_input_error(self, tmp_path, capsys):
        code = main(["--results", str(tmp_path / "nope"), "--out", str(tmp_path / "r.html")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_empty_results_dir_one_line_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["--results", str(empty), "--out", str(tmp_path / "r.html")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no run artifacts under")
        assert "repro-experiments" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.html").exists()

    def test_truncated_result_is_one_line_error(self, results_dir, tmp_path, capsys):
        (results_dir / "e2.json").write_text('{"experiment": "e2", "summ')
        out = tmp_path / "r.html"
        code = main(["--results", str(results_dir), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_explicit_missing_manifest_is_input_error(self, results_dir, tmp_path, capsys):
        code = main(
            [
                "--results",
                str(results_dir),
                "--manifest",
                str(tmp_path / "absent.json"),
                "--out",
                str(tmp_path / "r.html"),
            ]
        )
        assert code == 2

    def test_unwritable_output_is_write_error(self, results_dir, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(
            ["--results", str(results_dir), "--out", str(blocker / "x" / "r.html")]
        )
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    def test_trace_summarised(self, results_dir, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            "\n".join(
                json.dumps(e)
                for e in [
                    {"ts": 0.0, "kind": "span_begin", "name": "experiment"},
                    {"ts": 1.0, "kind": "span_end", "name": "experiment", "duration_s": 1.0},
                ]
            )
        )
        out = tmp_path / "r.html"
        code = main(
            ["--results", str(results_dir), "--trace", str(trace), "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert "Span tree" in out.read_text()

    def test_baseline_without_bench_docs_means_no_comparison(
        self, results_dir, tmp_path, capsys
    ):
        baseline = tmp_path / "BENCH_baseline.json"
        baseline.write_text(json.dumps(_bench_doc()))
        empty = tmp_path / "no-bench"
        empty.mkdir()
        out = tmp_path / "r.html"
        code = main(
            ["--results", str(results_dir), "--scan", str(empty),
             "--baseline", str(baseline), "--out", str(out)]
        )
        assert code == 0, capsys.readouterr().err
        html = out.read_text()
        assert "No BENCH_*.json artifacts found" in html
        assert "Comparison vs baseline" not in html

    def test_missing_baseline_is_input_error(self, results_dir, tmp_path, capsys):
        code = main(
            ["--results", str(results_dir), "--baseline",
             str(tmp_path / "absent.json"), "--out", str(tmp_path / "r.html")]
        )
        assert code == 2
        assert "no such baseline" in capsys.readouterr().err

    def test_bench_trend_compared_against_baseline(self, results_dir, tmp_path, capsys):
        bench = results_dir / "BENCH_20260806_abc.json"
        bench.write_text(json.dumps(_bench_doc()))
        empty = tmp_path / "no-bench"
        empty.mkdir()
        out = tmp_path / "r.html"
        code = main(
            ["--results", str(results_dir), "--scan", str(empty),
             "--baseline", str(bench), "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        html = out.read_text()
        assert "Comparison vs baseline" in html and "bench-a" in html

    def test_evaluates_declared_expectations_without_artifact(self, tmp_path, capsys):
        # A real table1 export and no FIDELITY_*.json: the CLI grades the
        # on-disk summary against the declared expectations.
        from repro.experiments.table1 import run

        results = tmp_path / "results"
        run().export(results)
        out = tmp_path / "r.html"
        assert main(["--results", str(results), "--out", str(out)]) == 0
        capsys.readouterr()
        html = out.read_text()
        assert "group1_matches_paper" in html
        assert "badge-match" in html


class TestCollectBenchDocs:
    def test_collects_sorted_and_deduped(self, tmp_path):
        a = tmp_path / "a"
        a.mkdir()
        (a / "BENCH_new.json").write_text(
            json.dumps(_bench_doc("2026-08-06T00:00:00+00:00"))
        )
        (a / "BENCH_old.json").write_text(
            json.dumps(_bench_doc("2026-08-01T00:00:00+00:00"))
        )
        (a / "BENCH_corrupt.json").write_text("{nope")
        ledger = build_ledger([a, a, tmp_path / "missing"])
        assert [d["created_utc"] for d in ledger.bench_docs()] == [
            "2026-08-01T00:00:00+00:00",
            "2026-08-06T00:00:00+00:00",
        ]

    def test_write_report_creates_parents(self, tmp_path):
        path = write_report("<html></html>", tmp_path / "deep" / "r.html")
        assert path.read_text() == "<html></html>"
