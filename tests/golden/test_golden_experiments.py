"""Golden snapshot of every experiment's fast-mode summary at seed 2009.

``experiments.json`` pins the exact numbers the whole suite produced when
it was last blessed.  Any change to model code, seeding, or experiment
wiring that moves *any* headline number fails here with a field-level
diff — the broadest regression net the repo has, and the determinism
contract's long-term memory.

Three artifact streams are pinned byte-for-byte as SHA-256 digests of
their JSONL text (one ``json.dumps(doc, sort_keys=True)`` per line, the
form ``write_timeseries_jsonl`` writes): the ext-telemetry and ext-dynamic
``timeseries`` artifacts (series documents, ``engine.events`` included,
plus alarm documents) and the ext-dynamic ``control`` decision stream.
Summary counts alone would not notice an alarm firing one bucket late.

To bless intentional changes::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

then review the ``experiments.json`` diff like code: every changed number
must be explainable by the change you just made.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import run_all

GOLDEN_PATH = Path(__file__).parent / "experiments.json"
SEED = 2009
#: (experiment, artifact key) streams pinned by digest.
DIGESTED_ARTIFACTS = (
    ("ext-dynamic", "control"),
    ("ext-dynamic", "timeseries"),
    ("ext-telemetry", "timeseries"),
)


def _jsonable(value):
    """Summaries hold plain scalars; numpy scalars sneak in via rounding."""
    if hasattr(value, "item"):
        return value.item()
    return value


def jsonl_digest(docs) -> str:
    """SHA-256 of the documents' JSONL text."""
    text = "\n".join(json.dumps(doc, sort_keys=True) for doc in docs)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def current_snapshot() -> dict:
    results = run_all(seed=SEED, fast=True)
    return {
        "_comment": "Regenerate with: pytest tests/golden --update-golden "
        "(review the diff before committing).",
        "seed": SEED,
        "fast": True,
        "experiments": {
            name: {k: _jsonable(v) for k, v in result.summary.items()}
            for name, result in sorted(results.items())
        },
        "artifact_digests": {
            f"{name}.{key}": jsonl_digest(results[name].artifacts[key])
            for name, key in DIGESTED_ARTIFACTS
        },
    }


@pytest.fixture(scope="module")
def snapshot():
    return current_snapshot()


def test_summaries_match_golden(update_golden, snapshot):
    if update_golden:
        GOLDEN_PATH.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"golden snapshot rewritten: {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing - generate it with "
        "`pytest tests/golden --update-golden`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())

    assert sorted(snapshot["experiments"]) == sorted(golden["experiments"]), (
        "experiment registry changed; regenerate the golden snapshot"
    )
    mismatches = []
    for name, golden_summary in golden["experiments"].items():
        got = snapshot["experiments"][name]
        for key in sorted(set(golden_summary) | set(got)):
            if golden_summary.get(key) != got.get(key):
                mismatches.append(
                    f"{name}.{key}: golden={golden_summary.get(key)!r} "
                    f"current={got.get(key)!r}"
                )
    assert not mismatches, (
        "summaries drifted from tests/golden/experiments.json "
        "(bless intentional changes with --update-golden):\n  "
        + "\n  ".join(mismatches)
    )


def test_artifact_digests_match_golden(update_golden, snapshot):
    if update_golden:
        pytest.skip("golden snapshot rewritten by test_summaries_match_golden")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert snapshot["artifact_digests"] == golden["artifact_digests"], (
        "artifact streams drifted from tests/golden/experiments.json; diff "
        "the JSONL of a run at the parent commit against this one (bless "
        "intentional changes with --update-golden)"
    )


def test_golden_file_is_well_formed():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["seed"] == SEED and golden["fast"] is True
    assert len(golden["experiments"]) >= 16
    assert sorted(golden["artifact_digests"]) == sorted(
        f"{name}.{key}" for name, key in DIGESTED_ARTIFACTS
    )
    for name, summary in golden["experiments"].items():
        assert isinstance(summary, dict) and summary, name
