"""Shared provenance helpers: one fingerprint schema for every artifact."""

import json

from repro.obs import (
    FINGERPRINT_KEYS,
    Expectation,
    Scoreboard,
    build_manifest,
    check_expectations,
    detect_git_sha,
    environment_fingerprint,
)
from repro.reporting.artifacts import append_only_artifact_path
from repro.reporting.bench import BenchResult, build_artifact
from repro.reporting.fidelity import build_fidelity_artifact


class TestEnvironmentFingerprint:
    def test_exact_key_schema(self):
        assert tuple(environment_fingerprint()) == FINGERPRINT_KEYS

    def test_carries_git_sha(self):
        fp = environment_fingerprint()
        assert fp["git_sha"] == detect_git_sha()

    def test_json_serialisable(self):
        json.dumps(environment_fingerprint())

    def test_identical_schema_across_artifact_families(self):
        # BENCH, FIDELITY, and the run manifest must agree on the
        # fingerprint schema so cross-artifact joins are dict comparisons.
        manifest = build_manifest({"tool": "test"})
        bench = build_artifact(
            [
                BenchResult(
                    name="b", group="g", source="t", wall_s=[0.1, 0.1], cpu_s=[0.1, 0.1]
                )
            ],
            warmup=0,
            repeats=2,
            git_sha="x",
        )
        scoreboard = Scoreboard(
            verdicts=tuple(check_expectations("e", {"m": 1}, [Expectation("m", 1)]))
        )
        fid = build_fidelity_artifact(scoreboard, git_sha="x")
        fingerprints = [manifest["environment"], bench["environment"], fid["environment"]]
        assert all(tuple(fp) == FINGERPRINT_KEYS for fp in fingerprints)
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]


class TestDetectGitSha:
    def test_short_hex_in_this_repo(self):
        sha = detect_git_sha()
        assert sha == "nogit" or (
            len(sha) >= 10 and all(c in "0123456789abcdef" for c in sha)
        )

    def test_cached_per_process(self):
        assert detect_git_sha() is detect_git_sha()


class TestAppendOnlyArtifactPath:
    def test_creates_directory_and_first_path(self, tmp_path):
        path = append_only_artifact_path(tmp_path / "sub", "FIDELITY_x")
        assert path == tmp_path / "sub" / "FIDELITY_x.json"
        assert path.parent.is_dir()

    def test_serials_instead_of_overwriting(self, tmp_path):
        first = append_only_artifact_path(tmp_path, "STEM")
        first.write_text("{}")
        second = append_only_artifact_path(tmp_path, "STEM")
        second.write_text("{}")
        third = append_only_artifact_path(tmp_path, "STEM")
        assert first.name == "STEM.json"
        assert second.name == "STEM_2.json"
        assert third.name == "STEM_3.json"

    def test_custom_suffix(self, tmp_path):
        path = append_only_artifact_path(tmp_path, "S", suffix=".html")
        assert path.name == "S.html"
