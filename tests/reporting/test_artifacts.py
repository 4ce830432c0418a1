"""The one artifact codec, and the split that keeps readers off hot imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import (
    FINGERPRINT_KEYS,
    MODEL_VERSION,
    Expectation,
    Scoreboard,
    check_expectations,
)
from repro.reporting.artifacts import ENVELOPE_KEYS, ArtifactKind
from repro.reporting.bench import BENCH
from repro.reporting.fidelity import FIDELITY, build_fidelity_artifact
from repro.reporting.fleet import FLEET, build_fleet_artifact, build_fleet_summary
from repro.reporting.ledger import build_ledger, ledger_with_live_results

ROOT = Path(__file__).resolve().parents[2]
BASELINES = sorted((ROOT / "benchmarks" / "baselines").glob("BENCH_*.json"))

FIG12 = {
    "dedicated_servers": 8,
    "consolidated_servers": 4,
    "dedicated_mean_power_W": 2000.0,
    "consolidated_mean_power_W": 1000.0,
}


@pytest.mark.parametrize(
    "module", ["repro", "repro.core", "repro.service.server"]
)
def test_hot_imports_load_no_reader(module):
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.reporting')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_committed_bench_baselines_load(path):
    doc = BENCH.load(path)
    assert doc == json.loads(path.read_text())
    assert doc["benchmarks"]


def test_baselines_exist():
    assert BASELINES


def _fidelity_doc():
    scoreboard = Scoreboard(
        verdicts=tuple(check_expectations("e", {"m": 1.5}, [Expectation("m", 1.0)]))
    )
    return build_fidelity_artifact(
        scoreboard, git_sha="abc", created_utc="2026-08-06T00:00:00+00:00",
        extra={"inputs": {"seed": 7}},
    )


def _fleet_doc():
    ledger = ledger_with_live_results(build_ledger([]), {"fig12": FIG12})
    return build_fleet_artifact(
        build_fleet_summary(ledger), ledger,
        git_sha="abc", created_utc="2026-08-06T00:00:00+00:00",
    )


@pytest.mark.parametrize(
    "kind, build", [(FIDELITY, _fidelity_doc), (FLEET, _fleet_doc)],
    ids=["fidelity", "fleet"],
)
def test_built_documents_write_and_load_unchanged(kind, build, tmp_path):
    doc = build()
    assert doc["schema"] == kind.schema
    assert doc["model_version"] == MODEL_VERSION
    assert tuple(doc["environment"]) == FINGERPRINT_KEYS
    first, second = kind.write(doc, tmp_path), kind.write(doc, tmp_path)
    assert first.name == f"{kind.prefix}_20260806_abc.json"
    assert second.name == f"{kind.prefix}_20260806_abc_2.json"
    assert kind.load(first) == json.loads(json.dumps(doc, default=str))


TOY = ArtifactKind("toy", "repro.toy/v1", "TOY", ("items",))


class TestCodec:
    def test_envelope_carries_provenance(self):
        doc = TOY.envelope({"x": 1}, git_sha="abc", created_utc="2026-01-02T00:00:00")
        assert set(doc) == {"schema", "model_version", *ENVELOPE_KEYS}
        assert doc["schema"] == "repro.toy/v1"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "toy artifact must be a JSON object"),
            ({"schema": "repro.toy/v9"}, "unexpected schema 'repro.toy/v9'"),
            ({"schema": "repro.toy/v1"}, "toy artifact missing 'created_utc'"),
        ],
    )
    def test_validate_messages(self, doc, message):
        with pytest.raises(ValueError, match=message):
            TOY.validate(doc)

    def test_body_keys_required_after_envelope(self):
        doc = TOY.envelope({})
        with pytest.raises(ValueError, match="toy artifact missing 'items'"):
            TOY.validate(doc)
        TOY.validate({**doc, "items": []})

    def test_kind_check_runs_last(self):
        def check(doc):
            raise ValueError("bad items")

        kind = ArtifactKind("toy", "repro.toy/v1", "TOY", ("items",), check)
        with pytest.raises(ValueError, match="bad items"):
            kind.validate({**TOY.envelope({}), "items": []})

    def test_load_errors_name_the_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such toy artifact"):
            TOY.load(tmp_path / "absent.json")
        with pytest.raises(ValueError, match=f"cannot read {tmp_path}: Is a directory"):
            TOY.load(tmp_path)
        bad = tmp_path / "TOY_bad.json"
        bad.write_text("{")
        with pytest.raises(ValueError, match=f"invalid JSON in {bad}"):
            TOY.load(bad)
        bad.write_text(json.dumps(TOY.envelope({})))
        with pytest.raises(ValueError, match=f"^{bad}: toy artifact missing 'items'"):
            TOY.load(bad)

    def test_write_rejects_invalid_documents(self, tmp_path):
        with pytest.raises(ValueError):
            TOY.write({"schema": "repro.toy/v1"}, tmp_path)
        assert not list(tmp_path.iterdir())
