"""Tests for noise-aware bench-artifact comparison."""

import json
import math

import pytest

from repro.reporting.bench import BENCH, BENCH_SCHEMA
from repro.reporting.compare import compare_artifacts, verdict_table


def _entry(name, medians, ok=True):
    wall = {
        "repeats": medians,
        "median": sorted(medians)[len(medians) // 2] if medians else None,
        "min": min(medians) if medians else None,
        "mean": sum(medians) / len(medians) if medians else None,
    }
    return {
        "name": name,
        "group": "g",
        "source": "s",
        "ok": ok,
        "error": None if ok else "Boom",
        "wall_s": wall,
        "cpu_s": dict(wall),
        "alloc": {"peak_bytes": 1},
    }


def _artifact(entries):
    return {
        "schema": BENCH_SCHEMA,
        "created_utc": "2026-08-06T00:00:00+00:00",
        "git_sha": "aaa",
        "model_version": "1.0.0",
        "environment": {"python": "3.x"},
        "warmup": 1,
        "repeats": 3,
        "selection": [],
        "inputs_hash": "0" * 64,
        "benchmarks": entries,
    }


class TestVerdicts:
    def test_within_band_unchanged(self):
        cmp = compare_artifacts(
            _artifact([_entry("a", [1.0, 1.0, 1.0])]),
            _artifact([_entry("a", [1.05, 1.05, 1.05])]),
            threshold=0.10,
        )
        (delta,) = cmp.deltas
        assert delta.verdict == "unchanged"
        assert delta.rel_change == pytest.approx(0.05)
        assert cmp.verdict == "no regression"

    def test_above_band_regression(self):
        cmp = compare_artifacts(
            _artifact([_entry("a", [1.0])]),
            _artifact([_entry("a", [1.3])]),
            threshold=0.10,
        )
        assert cmp.deltas[0].verdict == "regression"
        assert cmp.verdict == "regression"

    def test_below_band_improvement(self):
        cmp = compare_artifacts(
            _artifact([_entry("a", [1.0])]),
            _artifact([_entry("a", [0.5])]),
            threshold=0.10,
        )
        assert cmp.deltas[0].verdict == "improvement"
        assert cmp.verdict == "no regression"
        assert len(cmp.improvements) == 1

    def test_median_rides_out_single_noisy_repeat(self):
        # One wild repeat out of three must not flip the verdict.
        cmp = compare_artifacts(
            _artifact([_entry("a", [1.0, 1.0, 1.0])]),
            _artifact([_entry("a", [1.02, 5.0, 0.99])]),
            threshold=0.10,
        )
        assert cmp.deltas[0].verdict == "unchanged"

    def test_added_and_removed(self):
        cmp = compare_artifacts(
            _artifact([_entry("old", [1.0])]),
            _artifact([_entry("new", [1.0])]),
        )
        by_name = {d.name: d.verdict for d in cmp.deltas}
        assert by_name == {"old": "removed", "new": "added"}
        assert cmp.verdict == "no regression"

    def test_failed_benchmark_is_error(self):
        cmp = compare_artifacts(
            _artifact([_entry("a", [1.0])]),
            _artifact([_entry("a", [1.0], ok=False)]),
        )
        assert cmp.deltas[0].verdict == "error"
        assert len(cmp.errors) == 1

    def test_zero_baseline(self):
        cmp = compare_artifacts(
            _artifact([_entry("a", [0.0])]),
            _artifact([_entry("a", [0.1])]),
        )
        assert cmp.deltas[0].rel_change == math.inf
        assert cmp.deltas[0].verdict == "regression"

    def test_cpu_metric(self):
        base = _artifact([_entry("a", [1.0])])
        new = _artifact([_entry("a", [1.0])])
        new["benchmarks"][0]["cpu_s"]["median"] = 2.0
        assert compare_artifacts(base, new, metric="cpu_s").verdict == "regression"
        assert compare_artifacts(base, new, metric="wall_s").verdict == "no regression"

    def test_invalid_params(self):
        a = _artifact([])
        with pytest.raises(ValueError):
            compare_artifacts(a, a, threshold=-0.1)
        with pytest.raises(ValueError):
            compare_artifacts(a, a, metric="gpu_s")


class TestOutputs:
    def test_verdict_table_contents(self):
        cmp = compare_artifacts(
            _artifact([_entry("fast", [1.0]), _entry("slow", [1.0])]),
            _artifact([_entry("fast", [1.0]), _entry("slow", [2.0])]),
            threshold=0.25,
        )
        table = verdict_table(cmp)
        assert "verdict: regression (1 regressions, 0 improvements" in table
        assert "+100.0%" in table
        assert "slow" in table and "fast" in table

    def test_to_doc_round_trips_json(self):
        cmp = compare_artifacts(
            _artifact([_entry("a", [1.0])]), _artifact([_entry("a", [1.0])])
        )
        doc = json.loads(json.dumps(cmp.to_doc()))
        assert doc["verdict"] == "no regression"
        assert doc["deltas"][0]["name"] == "a"

    def test_to_doc_counts_every_verdict(self):
        cmp = compare_artifacts(
            _artifact([_entry("same", [1.0]), _entry("gone", [1.0])]),
            _artifact([_entry("same", [1.0]), _entry("new", [1.0])]),
        )
        counts = cmp.to_doc()["counts"]
        assert counts["unchanged"] == 1
        assert counts["removed"] == 1
        assert counts["added"] == 1
        assert counts["regression"] == 0
        assert sum(counts.values()) == len(cmp.deltas)


class TestLoadArtifact:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(_artifact([_entry("a", [1.0])])))
        assert BENCH.load(path)["benchmarks"][0]["name"] == "a"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such bench artifact"):
            BENCH.load(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            BENCH.load(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "wrong.json"
        doc = _artifact([])
        doc["schema"] = "repro.run-manifest/v1"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unexpected schema"):
            BENCH.load(path)
