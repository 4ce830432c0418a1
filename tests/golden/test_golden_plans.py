"""Golden digest of ``/plan`` report bodies.

``plans.json`` pins a SHA-256 over the sorted-key JSON of
:func:`repro.core.plan.report_json` for ``examples/deployment.json`` and a
seeded batch of deployment documents built below.  The batch covers one to
four services, one to three resource kinds, ``B`` in {1e-2, 1e-3, 1e-4},
per-service ``loss_probability`` targets on about 30% of the documents and
``load_model: "offered"`` on about 25%, so any change to the Fig. 4 solve,
the per-service-target sizing or the report fields that moves a single
byte of a plan body fails here.

Bless intentional changes together with the other snapshots::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.plan import build_report, load_model_of, parse_deployment, report_json

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).parent / "plans.json"
SEED = 2009
DOCUMENTS = 200
KINDS = ("cpu", "disk_io", "memory", "network")
TARGETS = (1e-2, 1e-3, 1e-4)


def _document(rng: random.Random) -> dict:
    """One solvable deployment: total offered load of 0.5-300 Erlangs."""
    kinds = sorted(rng.sample(KINDS, rng.randint(1, 3)))
    n_services = rng.randint(1, 4)
    services = []
    for i in range(n_services):
        touched = [kinds[0]] + [k for k in kinds[1:] if rng.random() < 0.7]
        rates = {k: round(rng.uniform(20.0, 5000.0), 4) for k in touched}
        impacts = {k: round(rng.uniform(0.25, 1.8), 4) for k in touched if rng.random() < 0.8}
        rho = 10 ** rng.uniform(-0.3, 2.5) / n_services
        service = {
            "name": f"s{i}",
            "arrival_rate": round(rho * min(rates.values()), 4),
            "service_rates": rates,
        }
        if impacts:
            service["impact_factors"] = impacts
        services.append(service)
    doc = {"loss_probability": rng.choice(TARGETS), "services": services}
    if rng.random() < 0.3:
        for service in rng.sample(services, rng.randint(1, n_services)):
            service["loss_probability"] = rng.choice(TARGETS)
    if rng.random() < 0.25:
        doc["load_model"] = "offered"
    if rng.random() < 0.2:
        doc["power"] = {"base_watts": round(rng.uniform(150.0, 300.0), 1),
                        "max_watts": round(rng.uniform(310.0, 450.0), 1)}
    return doc


def documents() -> list[dict]:
    rng = random.Random(SEED)
    example = json.loads((ROOT / "examples" / "deployment.json").read_text())
    return [example] + [_document(rng) for _ in range(DOCUMENTS)]


def _report(doc: dict) -> dict:
    inputs, targets, planner = parse_deployment(doc)
    load_model = load_model_of(doc)
    return report_json(build_report(inputs, planner, load_model), inputs, targets, load_model)


def current_snapshot() -> dict:
    docs = documents()
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(json.dumps(_report(doc), sort_keys=True).encode("utf-8") + b"\n")
    return {
        "_comment": "Regenerate with: pytest tests/golden --update-golden "
        "(review the diff before committing).",
        "seed": SEED,
        "documents": len(docs),
        "with_targets": sum(any("loss_probability" in s for s in d["services"]) for d in docs),
        "offered": sum(d.get("load_model") == "offered" for d in docs),
        "sha256": digest.hexdigest(),
    }


def test_plan_bodies_match_golden(update_golden):
    snapshot = current_snapshot()
    if update_golden:
        GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden snapshot rewritten: {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing - generate it with `pytest tests/golden --update-golden`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert snapshot == golden, (
        "plan bodies drifted from tests/golden/plans.json "
        "(bless intentional changes with --update-golden)"
    )


def test_documents_cover_the_mix():
    docs = documents()[1:]
    assert {len(d["services"]) for d in docs} == {1, 2, 3, 4}
    kinds = {len({k for s in d["services"] for k in s["service_rates"]}) for d in docs}
    assert kinds == {1, 2, 3}
    assert {d["loss_probability"] for d in docs} == set(TARGETS)
    targets = sum(any("loss_probability" in s for s in d["services"]) for d in docs)
    offered = sum(d.get("load_model") == "offered" for d in docs)
    assert 0.2 < targets / len(docs) < 0.4
    assert 0.15 < offered / len(docs) < 0.35
