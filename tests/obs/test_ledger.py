"""Run ledger: artifact discovery, typing, and the fail-soft contract."""

import json

import pytest

from repro.obs import TraceLog, build_manifest
from repro.obs.fidelity import Expectation, Scoreboard, check_expectations
from repro.reporting.bench import BenchResult, build_artifact
from repro.reporting.fidelity import build_fidelity_artifact
from repro.reporting.ledger import (
    LEDGER_KINDS,
    build_ledger,
    fingerprint_key,
    ledger_with_live_results,
)


def _result_doc(experiment="fig12", summary=None):
    return {
        "experiment": experiment,
        "title": "T",
        "summary": summary if summary is not None else {"m": 1.0},
        "rows": 2,
    }


def _bench_doc(created="2026-08-06T00:00:00+00:00"):
    result = BenchResult(
        name="bench-a", group="g", source="t", wall_s=[0.01, 0.02], cpu_s=[0.01, 0.02]
    )
    return build_artifact(
        [result], warmup=0, repeats=2, git_sha="abc", created_utc=created
    )


def _fidelity_doc(created="2026-08-06T00:00:00+00:00"):
    board = Scoreboard(
        verdicts=tuple(
            check_expectations(
                "fig12", {"m": 1.0}, [Expectation("m", 1.0, abs_tol=0.1)]
            )
        )
    )
    return build_fidelity_artifact(board, git_sha="abc", created_utc=created)


@pytest.fixture
def artifact_dir(tmp_path):
    d = tmp_path / "results"
    d.mkdir()
    (d / "fig12.json").write_text(json.dumps(_result_doc()))
    (d / "run_manifest.json").write_text(
        json.dumps(build_manifest({"tool": "t"}, seed=2009))
    )
    (d / "BENCH_20260806_abc.json").write_text(json.dumps(_bench_doc()))
    (d / "FIDELITY_20260806_abc.json").write_text(json.dumps(_fidelity_doc()))
    (d / "trace.jsonl").write_text(
        '{"ts": 1.0, "kind": "event", "name": "x"}\n'
        '{"ts": 2.0, "kind": "warning", "name": "y"}\n'
    )
    return d


class TestDiscovery:
    def test_indexes_every_artifact_family(self, artifact_dir):
        ledger = build_ledger([artifact_dir])
        counts = ledger.counts()
        assert set(counts) == set(LEDGER_KINDS)
        assert counts["manifest"] == 1
        assert counts["result"] == 1
        assert counts["bench"] == 1
        assert counts["fidelity"] == 1
        assert counts["trace"] == 1
        assert not ledger.skipped

    def test_results_inherit_manifest_seed_and_env(self, artifact_dir):
        ledger = build_ledger([artifact_dir])
        (entry,) = ledger.results
        assert entry.seed == 2009
        assert entry.env_key == ledger.manifests[0].env_key
        assert ledger.key(entry) == ("fig12", 2009, entry.env_key)

    def test_bench_and_fidelity_docs_sorted_by_creation(self, artifact_dir):
        (artifact_dir / "BENCH_20260801_abc.json").write_text(
            json.dumps(_bench_doc("2026-08-01T00:00:00+00:00"))
        )
        ledger = build_ledger([artifact_dir])
        created = [d["created_utc"] for d in ledger.bench_docs()]
        assert created == sorted(created)

    def test_first_directory_wins_per_experiment(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        (a / "fig12.json").write_text(json.dumps(_result_doc(summary={"m": 1.0})))
        (b / "fig12.json").write_text(json.dumps(_result_doc(summary={"m": 2.0})))
        ledger = build_ledger([a, b])
        assert ledger.summaries() == {"fig12": {"m": 1.0}}
        assert len(ledger.results) == 2  # both indexed, first authoritative

    def test_missing_directory_is_skipped_not_fatal(self, tmp_path):
        trace = TraceLog()
        ledger = build_ledger([tmp_path / "nope"], trace=trace)
        assert not ledger.entries
        assert ledger.skipped[0].reason == "not a directory"
        assert any(e.name == "ledger_skip" for e in trace.events())

    def test_empty_summary_still_counts_as_result(self, tmp_path):
        (tmp_path / "x.json").write_text(json.dumps(_result_doc(summary={})))
        ledger = build_ledger([tmp_path])
        assert ledger.experiments == ["fig12"]


class TestRobustness:
    """Truncated, foreign, and duplicate files skip with a warning."""

    def test_truncated_json_skipped_with_warning(self, tmp_path):
        (tmp_path / "broken.json").write_text('{"experiment": "x", ')
        trace = TraceLog()
        ledger = build_ledger([tmp_path], trace=trace)
        assert not ledger.entries
        assert "truncated or invalid JSON" in ledger.skipped[0].reason
        warnings = [e for e in trace.events() if e.kind == "warning"]
        assert warnings and warnings[0].name == "ledger_skip"

    def test_schema_version_mismatch_skipped_with_warning(self, tmp_path):
        manifest = build_manifest({"tool": "t"})
        manifest["schema"] = "repro.run-manifest/v99"
        (tmp_path / "run_manifest.json").write_text(json.dumps(manifest))
        bench = _bench_doc()
        bench["schema"] = "repro.bench/v99"
        (tmp_path / "BENCH_20260806_abc.json").write_text(json.dumps(bench))
        foreign = {"schema": "someone.else/v1", "data": 1}
        (tmp_path / "other.json").write_text(json.dumps(foreign))
        trace = TraceLog()
        ledger = build_ledger([tmp_path], trace=trace)
        assert not ledger.entries
        assert len(ledger.skipped) == 3
        assert all("schema-version mismatch" in s.reason for s in ledger.skipped)
        assert len([e for e in trace.events() if e.name == "ledger_skip"]) == 3

    def test_duplicate_run_ids_skipped_with_warning(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        doc = json.dumps(_result_doc())
        (a / "fig12.json").write_text(doc)
        (b / "fig12.json").write_text(doc)  # identical content -> same run id
        trace = TraceLog()
        ledger = build_ledger([a, b], trace=trace)
        assert len(ledger.results) == 1
        assert "duplicate run id" in ledger.skipped[0].reason
        assert any(e.name == "ledger_skip" for e in trace.events())

    def test_fleet_artifacts_not_reingested(self, tmp_path):
        (tmp_path / "FLEET_20260806_abc.json").write_text(json.dumps({"schema": "repro.fleet/v1"}))
        trace = TraceLog()
        ledger = build_ledger([tmp_path], trace=trace)
        assert not ledger.entries
        assert "dashboard output" in ledger.skipped[0].reason
        # expected skip: no warning noise
        assert not [e for e in trace.events() if e.kind == "warning"]

    def test_unparseable_jsonl_lines_tolerated(self, tmp_path):
        (tmp_path / "t.jsonl").write_text(
            'not json\n{"ts": 1, "kind": "event", "name": "x"}\n'
        )
        ledger = build_ledger([tmp_path])
        (entry,) = ledger.of_kind("trace")
        assert entry.doc["events"] == 1

    def test_never_raises_on_garbage_directory(self, tmp_path):
        (tmp_path / "a.json").write_text("[1, 2, 3]")
        (tmp_path / "b.json").write_text("null")
        (tmp_path / "c.jsonl").write_text("")
        (tmp_path / "d.json").write_text('{"neither": "fish nor fowl"}')
        ledger = build_ledger([tmp_path])
        assert not ledger.entries
        assert len(ledger.skipped) == 4


class TestEnvKeys:
    def test_fingerprint_key_stable_and_restricted(self):
        env = {"python": "3.11", "git_sha": "abc", "platform": "x"}
        noisy = dict(env, extraneous="ignored")
        assert fingerprint_key(env) == fingerprint_key(noisy)
        assert fingerprint_key(env) != fingerprint_key({**env, "git_sha": "def"})
        assert fingerprint_key(None) is None
        assert fingerprint_key({}) is None

    def test_dominant_env_key(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        m1 = build_manifest({"tool": "t"}, seed=1)
        m2 = build_manifest({"tool": "u"}, seed=2)
        m2["environment"] = dict(m2["environment"], git_sha="elsewhere")
        (a / "run_manifest.json").write_text(json.dumps(m1))
        (a / "fig12.json").write_text(json.dumps(_result_doc("fig12")))
        (a / "fig13.json").write_text(json.dumps(_result_doc("fig13")))
        (b / "run_manifest.json").write_text(json.dumps(m2))
        ledger = build_ledger([a, b])
        assert len(ledger.env_counts()) == 2
        assert ledger.dominant_env_key() == fingerprint_key(m1["environment"])


class TestLiveResults:
    def test_live_entries_come_first_and_dedup_disk_copies(self, tmp_path):
        (tmp_path / "fig12.json").write_text(json.dumps(_result_doc()))
        disk = build_ledger([tmp_path])
        merged = ledger_with_live_results(disk, {"fig12": {"m": 1.0}}, seed=7)
        # identical summary -> identical run id -> disk copy dropped
        assert len(merged.results) == 1
        assert merged.results[0].path == "<live-run>"
        assert merged.results[0].seed == 7

    def test_diverging_live_summary_wins(self, tmp_path):
        (tmp_path / "fig12.json").write_text(json.dumps(_result_doc(summary={"m": 1.0})))
        disk = build_ledger([tmp_path])
        merged = ledger_with_live_results(disk, {"fig12": {"m": 5.0}})
        assert merged.summaries() == {"fig12": {"m": 5.0}}
        assert len(merged.results) == 2
