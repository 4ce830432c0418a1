"""Tests for the benchmark harness (discovery, timing, artifacts)."""

import ast
import json
import time
from pathlib import Path

import pytest

from repro.obs import (
    BENCH_SCHEMA,
    BenchSpec,
    TraceLog,
    build_artifact,
    compare_artifacts,
    discover_suite,
    inputs_hash,
    run_specs,
    scoped_trace,
    select_specs,
    validate_artifact,
    write_artifact,
)
from repro.obs.bench import (
    CALIBRATION_PROBES,
    BenchmarkProxy,
    detect_git_sha,
    merge_artifacts,
)

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


class TestBenchmarkProxy:
    def test_call_passes_through(self):
        proxy = BenchmarkProxy()
        assert proxy(lambda a, b: a + b, 2, b=3) == 5

    def test_pedantic_passes_through(self):
        proxy = BenchmarkProxy()
        assert proxy.pedantic(lambda a: a * 2, args=(4,), rounds=3, iterations=2) == 8

    def test_pedantic_setup(self):
        proxy = BenchmarkProxy()
        result = proxy.pedantic(lambda x, y=0: x + y, setup=lambda: ((5,), {"y": 1}))
        assert result == 6


def _write_suite(tmp_path):
    (tmp_path / "bench_fake.py").write_text(
        "import pytest\n"
        "\n"
        "@pytest.mark.benchmark(group='fake-group')\n"
        "def test_with_fixture(benchmark):\n"
        "    assert benchmark(lambda: 41 + 1) == 42\n"
        "\n"
        "def test_plain():\n"
        "    assert sum(range(10)) == 45\n"
        "\n"
        "def test_needs_unknown_fixture(tmp_path):\n"
        "    pass\n"
        "\n"
        "def helper():\n"
        "    pass\n"
    )
    (tmp_path / "conftest.py").write_text("")
    return tmp_path


class TestDiscovery:
    def test_discovers_test_functions(self, tmp_path):
        specs = discover_suite(_write_suite(tmp_path))
        names = [s.name for s in specs]
        assert names == ["bench_fake::test_plain", "bench_fake::test_with_fixture"]

    def test_group_from_pytest_mark(self, tmp_path):
        specs = {s.name: s for s in discover_suite(_write_suite(tmp_path))}
        assert specs["bench_fake::test_with_fixture"].group == "fake-group"
        assert specs["bench_fake::test_plain"].group == "bench_fake"

    def test_specs_runnable(self, tmp_path):
        for spec in discover_suite(_write_suite(tmp_path)):
            spec.fn()  # assertions inside must hold

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_suite(tmp_path / "nope")

    def test_parametrize_expands_one_spec_per_case(self, tmp_path):
        (tmp_path / "bench_cases.py").write_text(
            "import pytest\n"
            "\n"
            "@pytest.mark.benchmark(group='cases')\n"
            "@pytest.mark.parametrize('n,rho', [(1, 0.5), (8, 4.0)],\n"
            "                         ids=['small', 'large'])\n"
            "def test_listed_ids(benchmark, n, rho):\n"
            "    assert benchmark(lambda: n * rho) > 0\n"
            "\n"
            "@pytest.mark.parametrize('s', [8, 64], ids=lambda s: f'S{s}')\n"
            "def test_callable_ids(s):\n"
            "    assert s in (8, 64)\n"
            "\n"
            "@pytest.mark.parametrize('policy', ['rr', 'lc'])\n"
            "@pytest.mark.parametrize('scale', [0.5, 2])\n"
            "def test_default_ids(policy, scale, rng):\n"
            "    assert policy in ('rr', 'lc') and scale in (0.5, 2)\n"
        )
        specs = {s.name: s for s in discover_suite(tmp_path)}
        assert sorted(specs) == [
            "bench_cases::test_callable_ids[S64]",
            "bench_cases::test_callable_ids[S8]",
            "bench_cases::test_default_ids[0.5-lc]",
            "bench_cases::test_default_ids[0.5-rr]",
            "bench_cases::test_default_ids[2-lc]",
            "bench_cases::test_default_ids[2-rr]",
            "bench_cases::test_listed_ids[large]",
            "bench_cases::test_listed_ids[small]",
        ]
        assert specs["bench_cases::test_listed_ids[small]"].group == "cases"
        for spec in specs.values():
            spec.fn()  # each case gets its own arguments plus the fixtures

    def test_real_suite_discovery(self):
        specs = discover_suite(BENCH_DIR)
        names = {s.name for s in specs}
        assert "bench_table1_model::test_table1_rows" in names
        assert "bench_fixed_point::test_reduced_load_fixed_point" in names
        for kernel in ("test_recurrence", "test_log_domain", "test_continuous"):
            for case in ("small", "medium", "large"):
                assert f"bench_ablation_erlang::{kernel}[{case}]" in names
        # Every test_* function on disk is adapted, parametrized or not.
        on_disk = {
            f"{path.stem}::{node.name}"
            for path in BENCH_DIR.glob("bench_*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
        }
        assert {name.split("[")[0] for name in names} == on_disk
        assert len(specs) >= 80

    def test_select_by_name_and_group(self, tmp_path):
        specs = discover_suite(_write_suite(tmp_path))
        assert [s.name for s in select_specs(specs, ["fake-group"])] == [
            "bench_fake::test_with_fixture"
        ]
        assert len(select_specs(specs, ["bench_fake::*"])) == 2
        assert select_specs(specs, None) == specs
        assert select_specs(specs, ["zzz"]) == []


class TestRunSpecs:
    def test_timings_recorded(self):
        spec = BenchSpec(name="s", fn=lambda: sum(range(1000)))
        (result,) = run_specs([spec], warmup=1, repeats=3)
        assert result.ok
        assert len(result.wall_s) == 3
        assert len(result.cpu_s) == 3
        assert result.wall_median > 0.0
        assert result.alloc_peak_bytes is not None

    def test_warmup_not_timed(self):
        calls = []
        spec = BenchSpec(name="s", fn=lambda: calls.append(1))
        (result,) = run_specs(
            [spec], warmup=2, repeats=3, min_sample_s=0.0, track_allocations=False
        )
        assert len(calls) == 5  # 2 warmup + 3 timed, no alloc pass
        assert result.alloc_peak_bytes is None
        assert result.iterations == 1

    def test_calibrated_iterations_for_fast_functions(self):
        calls = []
        spec = BenchSpec(name="s", fn=lambda: calls.append(1))
        (result,) = run_specs(
            [spec], warmup=0, repeats=2, min_sample_s=0.01, track_allocations=False
        )
        # A near-instant function gets batched; values are per-call averages.
        assert result.iterations > 1
        assert len(calls) == CALIBRATION_PROBES + 2 * result.iterations
        assert all(w < 0.01 for w in result.wall_s)

    def test_slow_function_not_batched(self):
        calls = []

        def slow():
            calls.append(1)
            time.sleep(0.02)

        spec = BenchSpec(name="s", fn=slow)
        (result,) = run_specs(
            [spec], warmup=0, repeats=1, min_sample_s=0.01, track_allocations=False
        )
        assert result.iterations == 1
        assert len(calls) == 3  # two agreeing probes, then the timed call

    def test_hiccup_probe_does_not_shrink_batch(self):
        # First probe simulates a scheduler hiccup; the best of the three
        # probes must size the batch, not the slow outlier.
        calls = []

        def fn():
            calls.append(1)
            if len(calls) == 1:
                time.sleep(0.05)

        (result,) = run_specs(
            [BenchSpec(name="s", fn=fn)],
            warmup=0,
            repeats=1,
            min_sample_s=0.01,
            track_allocations=False,
        )
        assert result.iterations > 1

    def test_error_captured_not_raised(self):
        def boom():
            raise RuntimeError("nope")

        results = run_specs(
            [BenchSpec(name="bad", fn=boom), BenchSpec(name="good", fn=lambda: 1)],
            warmup=0,
            repeats=1,
        )
        assert [r.ok for r in results] == [False, True]
        assert "RuntimeError: nope" in results[0].error
        assert results[0].wall_median is None

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            run_specs([], warmup=-1)
        with pytest.raises(ValueError):
            run_specs([], repeats=0)
        with pytest.raises(ValueError):
            run_specs([], min_sample_s=-0.5)

    def test_emits_trace_events(self):
        with scoped_trace(TraceLog()) as trace:
            run_specs([BenchSpec(name="s", fn=lambda: None)], warmup=0, repeats=1)
            events = [e for e in trace.events() if e.name == "bench"]
        assert len(events) == 1
        assert events[0].fields["benchmark"] == "s"
        assert events[0].fields["ok"] is True


class TestArtifact:
    def _results(self, fn=lambda: None):
        return run_specs(
            [BenchSpec(name="s", fn=fn, group="g")], warmup=0, repeats=2
        )

    def test_build_and_validate(self):
        doc = build_artifact(
            self._results(), warmup=0, repeats=2, selection=["s*"], git_sha="abc123"
        )
        validate_artifact(doc)
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["git_sha"] == "abc123"
        assert doc["environment"]["python"]
        assert doc["inputs_hash"] == inputs_hash(
            {"selection": ["s*"], "warmup": 0, "repeats": 2, "benchmarks": ["s"]}
        )
        entry = doc["benchmarks"][0]
        assert entry["wall_s"]["median"] is not None
        assert len(entry["wall_s"]["repeats"]) == 2

    def test_validate_rejects_wrong_schema(self):
        doc = build_artifact(self._results(), warmup=0, repeats=2, git_sha="x")
        doc["schema"] = "other/v9"
        with pytest.raises(ValueError, match="schema"):
            validate_artifact(doc)

    def test_validate_rejects_missing_fields(self):
        doc = build_artifact(self._results(), warmup=0, repeats=2, git_sha="x")
        del doc["benchmarks"][0]["wall_s"]
        with pytest.raises(ValueError, match="wall_s"):
            validate_artifact(doc)

    def test_write_filename_and_collision_suffix(self, tmp_path):
        doc = build_artifact(
            self._results(),
            warmup=0,
            repeats=2,
            git_sha="abcdef",
            created_utc="2026-08-06T10:00:00+00:00",
        )
        first = write_artifact(doc, tmp_path)
        second = write_artifact(doc, tmp_path)
        assert first.name == "BENCH_20260806_abcdef.json"
        assert second.name == "BENCH_20260806_abcdef_2.json"
        loaded = json.loads(first.read_text())
        assert loaded["schema"] == BENCH_SCHEMA

    def test_detect_git_sha_in_repo(self):
        sha = detect_git_sha()
        assert sha == "nogit" or all(c in "0123456789abcdef" for c in sha)


class TestMerge:
    def _artifact(self, fn=lambda: None, git_sha="abc"):
        results = run_specs(
            [BenchSpec(name="s", fn=fn, group="g")],
            warmup=0,
            repeats=2,
            min_sample_s=0.0,
        )
        return build_artifact(results, warmup=0, repeats=2, git_sha=git_sha)

    def test_pools_repeats_and_recomputes_stats(self):
        a, b = self._artifact(), self._artifact()
        merged = merge_artifacts([a, b])
        validate_artifact(merged)
        entry = merged["benchmarks"][0]
        expected = a["benchmarks"][0]["wall_s"]["repeats"] + (
            b["benchmarks"][0]["wall_s"]["repeats"]
        )
        assert entry["wall_s"]["repeats"] == expected
        assert entry["wall_s"]["min"] == min(expected)
        assert merged["repeats"] == 4
        assert merged["git_sha"] == "abc"

    def test_mixed_shas_flagged(self):
        merged = merge_artifacts([self._artifact(), self._artifact(git_sha="zzz")])
        assert merged["git_sha"] == "mixed"

    def test_single_artifact_is_identity_on_repeats(self):
        a = self._artifact()
        merged = merge_artifacts([a])
        assert (
            merged["benchmarks"][0]["wall_s"]["repeats"]
            == a["benchmarks"][0]["wall_s"]["repeats"]
        )

    def test_mismatched_suites_rejected(self):
        a = self._artifact()
        b = self._artifact()
        b["benchmarks"][0]["name"] = "other"
        with pytest.raises(ValueError, match="different benchmarks"):
            merge_artifacts([a, b])

    def test_failure_in_any_run_propagates(self):
        def boom():
            raise RuntimeError("nope")

        merged = merge_artifacts([self._artifact(), self._artifact(fn=boom)])
        entry = merged["benchmarks"][0]
        assert entry["ok"] is False
        assert "nope" in entry["error"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_artifacts([])


class TestTrajectoryAcceptance:
    """The ISSUE acceptance flow: same-commit reruns compare clean, an
    injected slowdown is flagged."""

    def _artifact(self, fn, repeats=3):
        results = run_specs(
            [BenchSpec(name="target", fn=fn)],
            warmup=1,
            repeats=repeats,
            track_allocations=False,
        )
        return build_artifact(results, warmup=1, repeats=repeats, git_sha="same")

    def test_same_commit_reruns_no_regression(self):
        fn = lambda: time.sleep(0.01)
        comparison = compare_artifacts(
            self._artifact(fn), self._artifact(fn), threshold=0.10
        )
        assert comparison.verdict == "no regression"

    def test_injected_sleep_flagged_as_regression(self):
        base = self._artifact(lambda: time.sleep(0.005))
        slowed = self._artifact(lambda: time.sleep(0.02))
        comparison = compare_artifacts(base, slowed, threshold=0.25)
        assert comparison.verdict == "regression"
        (delta,) = comparison.regressions
        assert delta.name == "target"
        assert delta.rel_change > 0.25
