"""Tests for the ``repro-bench`` command-line front end."""

import json

import pytest

from repro.obs.benchcli import main


@pytest.fixture
def suite_dir(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_quick.py").write_text(
        "import pytest\n"
        "\n"
        "@pytest.mark.benchmark(group='quick')\n"
        "def test_sum(benchmark):\n"
        "    assert benchmark(lambda: sum(range(100))) == 4950\n"
        "\n"
        "def test_sorted():\n"
        "    assert sorted([3, 1, 2]) == [1, 2, 3]\n"
    )
    return bench_dir


def _run(suite_dir, out_dir, *extra):
    code = main(
        [
            "run",
            "--bench-dir",
            str(suite_dir),
            "--out",
            str(out_dir),
            "--warmup",
            "0",
            "--repeats",
            "2",
            "--no-alloc",
            *extra,
        ]
    )
    return code


class TestRun:
    def test_writes_schema_valid_artifact(self, suite_dir, tmp_path, capsys):
        assert _run(suite_dir, tmp_path / "out") == 0
        out = capsys.readouterr().out
        assert "bench artifact:" in out
        (artifact,) = sorted((tmp_path / "out").glob("BENCH_*.json"))
        doc = json.loads(artifact.read_text())
        assert doc["schema"] == "repro.bench/v1"
        assert {e["name"] for e in doc["benchmarks"]} == {
            "bench_quick::test_sorted",
            "bench_quick::test_sum",
        }

    def test_rerun_keeps_both_artifacts(self, suite_dir, tmp_path):
        assert _run(suite_dir, tmp_path / "out") == 0
        assert _run(suite_dir, tmp_path / "out") == 0
        assert len(list((tmp_path / "out").glob("BENCH_*.json"))) == 2

    def test_select_filters(self, suite_dir, tmp_path, capsys):
        assert _run(suite_dir, tmp_path / "out", "--select", "quick") == 0
        capsys.readouterr()
        (artifact,) = (tmp_path / "out").glob("BENCH_*.json")
        doc = json.loads(artifact.read_text())
        assert [e["name"] for e in doc["benchmarks"]] == ["bench_quick::test_sum"]
        assert doc["selection"] == ["quick"]

    def test_list_runs_nothing(self, suite_dir, tmp_path, capsys):
        assert _run(suite_dir, tmp_path / "out", "--list") == 0
        out = capsys.readouterr().out
        assert "bench_quick::test_sum  [quick]" in out
        assert not (tmp_path / "out").exists()

    def test_no_match_errors(self, suite_dir, tmp_path, capsys):
        assert _run(suite_dir, tmp_path / "out", "--select", "zzz") == 2
        assert "no benchmarks match" in capsys.readouterr().err

    def test_missing_bench_dir_errors(self, tmp_path, capsys):
        assert main(["run", "--bench-dir", str(tmp_path / "nope")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_failing_benchmark_reported(self, tmp_path, capsys):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_bad.py").write_text(
            "def test_raises():\n    raise RuntimeError('kaput')\n"
        )
        assert _run(bench_dir, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "1 benchmark(s) failed" in err
        (artifact,) = (tmp_path / "out").glob("BENCH_*.json")
        entry = json.loads(artifact.read_text())["benchmarks"][0]
        assert entry["ok"] is False
        assert "kaput" in entry["error"]

    def test_unwritable_out_dir(self, suite_dir, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert _run(suite_dir, blocker / "sub") == 1
        assert "cannot write bench artifact" in capsys.readouterr().err


@pytest.fixture
def two_artifacts(suite_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run(suite_dir, out) == 0
    assert _run(suite_dir, out) == 0
    capsys.readouterr()
    return sorted(out.glob("BENCH_*.json"))


class TestCompare:
    def test_same_commit_no_regression(self, two_artifacts, capsys):
        base, new = two_artifacts
        # Generous threshold: these micro-benches are noise-dominated.
        code = main(["compare", str(base), str(new), "--threshold", "20.0"])
        assert code == 0
        assert "verdict: no regression" in capsys.readouterr().out

    def test_fail_on_regression_exit_code(self, two_artifacts, tmp_path, capsys):
        base, _ = two_artifacts
        doc = json.loads(base.read_text())
        for entry in doc["benchmarks"]:
            entry["wall_s"]["median"] *= 100.0
        slowed = tmp_path / "slowed.json"
        slowed.write_text(json.dumps(doc))
        assert main(["compare", str(base), str(slowed)]) == 0  # report-only
        capsys.readouterr()
        code = main(["compare", str(base), str(slowed), "--fail-on-regression"])
        assert code == 1
        assert "verdict: regression" in capsys.readouterr().out

    def test_fail_on_regression_fails_on_errored_benchmark(
        self, two_artifacts, tmp_path, capsys
    ):
        base, _ = two_artifacts
        doc = json.loads(base.read_text())
        doc["benchmarks"][0].update(ok=False, error="RuntimeError: kaput")
        errored = tmp_path / "errored.json"
        errored.write_text(json.dumps(doc))
        assert main(["compare", str(base), str(errored)]) == 0  # report-only
        capsys.readouterr()
        code = main(["compare", str(base), str(errored), "--fail-on-regression"])
        assert code == 1
        assert "1 errors" in capsys.readouterr().out

    def test_fail_on_regression_ignores_removed_benchmark(
        self, two_artifacts, tmp_path, capsys
    ):
        base, _ = two_artifacts
        doc = json.loads(base.read_text())
        doc["benchmarks"] = doc["benchmarks"][:1]
        trimmed = tmp_path / "trimmed.json"
        trimmed.write_text(json.dumps(doc))
        code = main(
            ["compare", str(base), str(trimmed), "--fail-on-regression",
             "--threshold", "20.0"]
        )
        assert code == 0
        assert "removed" in capsys.readouterr().out

    def test_json_output(self, two_artifacts, capsys):
        base, new = two_artifacts
        assert main(["compare", str(base), str(new), "--json", "--threshold", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.bench-compare/v1"
        assert doc["verdict"] in ("regression", "no regression")

    def test_missing_artifact(self, two_artifacts, tmp_path, capsys):
        base, _ = two_artifacts
        assert main(["compare", str(base), str(tmp_path / "nope.json")]) == 2
        assert "no such bench artifact" in capsys.readouterr().err


class TestMerge:
    def test_merges_to_requested_path(self, two_artifacts, tmp_path, capsys):
        base, new = two_artifacts
        out = tmp_path / "baselines" / "BENCH_baseline.json"
        assert main(["merge", str(base), str(new), "--out", str(out)]) == 0
        assert "merged 2 artifacts" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.bench/v1"
        assert doc["repeats"] == 4
        for entry in doc["benchmarks"]:
            assert len(entry["wall_s"]["repeats"]) == 4

    def test_merged_baseline_compares_clean(self, two_artifacts, tmp_path, capsys):
        base, new = two_artifacts
        out = tmp_path / "merged.json"
        assert main(["merge", str(base), str(new), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["compare", str(out), str(new), "--threshold", "20.0"])
        assert code == 0
        assert "verdict: no regression" in capsys.readouterr().out

    def test_mismatched_suites_exit_2(self, two_artifacts, tmp_path, capsys):
        base, new = two_artifacts
        doc = json.loads(new.read_text())
        doc["benchmarks"] = doc["benchmarks"][:1]
        trimmed = tmp_path / "trimmed.json"
        trimmed.write_text(json.dumps(doc))
        assert main(["merge", str(base), str(trimmed), "--out", str(tmp_path / "m.json")]) == 2
        assert "different benchmarks" in capsys.readouterr().err

    def test_missing_input_exit_2(self, two_artifacts, tmp_path, capsys):
        base, _ = two_artifacts
        code = main(
            ["merge", str(base), str(tmp_path / "nope.json"), "--out", str(tmp_path / "m.json")]
        )
        assert code == 2

    def test_unwritable_out_exit_1(self, two_artifacts, tmp_path, capsys):
        base, new = two_artifacts
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["merge", str(base), str(new), "--out", str(blocker / "m.json")])
        assert code == 1
        assert "cannot write merged artifact" in capsys.readouterr().err


class TestReport:
    def test_report_table(self, two_artifacts, capsys):
        base, _ = two_artifacts
        assert main(["report", str(base)]) == 0
        out = capsys.readouterr().out
        assert "bench_quick::test_sum" in out
        assert "wall med" in out
        assert "repro.bench/v1" in out

    def test_report_bad_path(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err
