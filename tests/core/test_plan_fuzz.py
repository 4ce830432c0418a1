"""Fuzz the deployment boundary: parse -> plan -> report document.

Documents mix ordinary numbers with the values that break arithmetic
(zero, negatives, subnormals, ~1e300) and with values of the wrong type,
and drop or add fields.  Whatever the document, the plan core either
returns a report whose every number is finite JSON or raises
:class:`DeploymentError`; nothing else may escape.

Ordinary rates are at least 1, arrivals at most 500 and impact factors at
least 0.25, so every load the core inverts is either a few thousand
Erlangs at most or beyond the server cap (refused before any scan): the
examples stay fast.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.plan import (
    DeploymentError,
    build_report,
    load_model_of,
    parse_deployment,
    report_json,
)

#: Each document draws one regime ("tiny" twice as often as the others); in
#: a pool's regime every number it holds comes from that pool a third of the
#: time.
POOLS = {
    "tiny": [5e-324, 1e-310, 2.2e-308],
    "huge": [1e300, 1e308, -1e300, -1.0],
    "wrong": [0, -0.0, True, False, "1", None, [1]],
}
REGIMES = st.sampled_from(["ordinary", "shape", "tiny", "tiny", "huge", "wrong"])
KINDS = ("cpu", "disk_io", "memory")


def _number(draw, regime, ordinary):
    if regime in POOLS and draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(POOLS[regime]))
    return draw(ordinary)


def _shape(draw, regime, fields: dict) -> dict:
    """In the "shape" regime, sometimes drop a field or add a stray one."""
    action = draw(st.sampled_from(["keep", "drop", "extra"])) if regime == "shape" else "keep"
    if action == "drop":
        fields.pop(draw(st.sampled_from(sorted(fields))))
    elif action == "extra":
        fields["extra"] = draw(st.sampled_from(POOLS["wrong"]))
    return fields


def _service(draw, regime, index):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True))
    service = {
        "name": f"s{index}",
        "arrival_rate": _number(draw, regime, st.floats(0.0, 500.0)),
        "service_rates": {k: _number(draw, regime, st.floats(1.0, 500.0)) for k in kinds},
    }
    if draw(st.booleans()):
        impacted = draw(st.lists(st.sampled_from(kinds), max_size=2, unique=True))
        service["impact_factors"] = {
            k: _number(draw, regime, st.sampled_from([0.25, 0.5, 1.0, 1.85, 10.0]))
            for k in impacted
        }
    if draw(st.booleans()):
        service["loss_probability"] = _number(draw, regime, st.sampled_from([1e-2, 1e-3, 1e-4]))
    return _shape(draw, regime, service)


@st.composite
def deployments(draw):
    regime = draw(REGIMES)
    count = draw(st.integers(1, 3))
    doc = {
        "loss_probability": _number(draw, regime, st.sampled_from([1e-2, 1e-3, 1e-4])),
        "services": [_service(draw, regime, i) for i in range(count)],
    }
    if draw(st.booleans()):
        doc["load_model"] = draw(st.sampled_from(["paper", "offered"]))
    if draw(st.booleans()):
        doc["power"] = {"base_watts": _number(draw, regime, st.floats(100.0, 300.0)),
                        "max_watts": _number(draw, regime, st.floats(300.0, 500.0))}
    for key in ("xen_idle_factor", "xen_workload_factor"):
        if draw(st.booleans()):
            doc[key] = _number(draw, regime, st.floats(0.1, 2.0))
    return _shape(draw, regime, doc)


#: The first document the scan found: 5e-324 * 0.5 rounds to 0.0.
UNDERFLOW = {
    "loss_probability": 0.01,
    "services": [
        {"name": "a", "arrival_rate": 10, "service_rates": {"cpu": 100}},
        {"name": "b", "arrival_rate": 0, "service_rates": {"cpu": 5e-324},
         "impact_factors": {"cpu": 0.5}},
    ],
}


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(deployments())
@example(UNDERFLOW)
def test_only_deployment_errors_escape_and_reports_are_finite(doc):
    try:
        inputs, targets, planner = parse_deployment(doc)
        load_model = load_model_of(doc)
        out = report_json(build_report(inputs, planner, load_model), inputs, targets, load_model)
    except DeploymentError:
        return
    json.dumps(out, allow_nan=False)
