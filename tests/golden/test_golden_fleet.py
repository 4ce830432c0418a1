"""Golden snapshot of the fleet audit summary at seed 2009.

``fleet.json`` pins the scenario economics, deltas, and decision the
aggregator derives from the fast-mode fig11/fig12/fig13/table1 summaries
under the **default** audit assumptions.  Anything that moves a priced
number — the power model, the metering pipeline, the assumption defaults,
the delta arithmetic — fails here with a field-level diff.

Bless intentional changes together with the experiment snapshot::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.experiments import get_experiment
from repro.reporting.fleet import AuditAssumptions, build_fleet_summary
from repro.reporting.ledger import build_ledger, ledger_with_live_results

GOLDEN_PATH = Path(__file__).parent / "fleet.json"
SEED = 2009
EXPERIMENTS = ("fig11", "fig12", "fig13", "table1")


def current_snapshot() -> dict:
    summaries = {
        name: get_experiment(name)(seed=SEED, fast=True).summary
        for name in EXPERIMENTS
    }
    ledger = ledger_with_live_results(
        build_ledger([]), summaries, seed=SEED
    )
    summary = build_fleet_summary(ledger, AuditAssumptions())
    return {
        "_comment": "Regenerate with: pytest tests/golden --update-golden "
        "(review the diff before committing).",
        "seed": SEED,
        "fast": True,
        "experiments": list(EXPERIMENTS),
        "assumptions": summary["assumptions"],
        "scenarios": summary["scenarios"],
        "deltas": summary["deltas"],
        "decision": summary["decision"],
        "notes": summary["notes"],
    }


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        out[prefix] = value


def test_fleet_summary_matches_golden(update_golden):
    snapshot = current_snapshot()
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

    flat_golden, flat_current = {}, {}
    for section in ("assumptions", "scenarios", "deltas", "decision"):
        _flatten(section, golden.get(section, {}), flat_golden)
        _flatten(section, snapshot.get(section, {}), flat_current)
    mismatches = [
        f"{key}: golden={flat_golden.get(key)!r} "
        f"current={flat_current.get(key)!r}"
        for key in sorted(set(flat_golden) | set(flat_current))
        if flat_golden.get(key) != flat_current.get(key)
    ]
    assert not mismatches, (
        "fleet audit drifted from tests/golden/fleet.json "
        "(bless intentional changes with --update-golden):\n  "
        + "\n  ".join(mismatches)
    )


def test_golden_fleet_file_is_well_formed():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["seed"] == SEED and golden["fast"] is True
    assert set(golden["scenarios"]) == {"dedicated", "consolidated", "projected"}
    assert golden["decision"]["recommendation"] == "consolidated"
    for delta in golden["deltas"].values():
        assert "cost_saved_usd" in delta and "carbon_saved_kg" in delta
