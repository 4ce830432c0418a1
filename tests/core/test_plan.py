"""The deployment boundary: one table of malformed documents, three doors.

Every case must raise :class:`DeploymentError` in the plan core, be a 400
with a structured error body from ``POST /plan`` (never a 500, never a
``NaN`` in a 200), and exit ``repro-plan`` with code 2 and one ``error:``
line on stderr (never a traceback).
"""

import copy
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.plan import (
    DeploymentError,
    build_report,
    load_model_of,
    parse_deployment,
    report_json,
)
from repro.service import PlannerApp

ROOT = Path(__file__).resolve().parents[2]
EXAMPLE = json.loads((ROOT / "examples" / "deployment.json").read_text())


def _with(path, value):
    """The example document with the value at ``path`` replaced."""
    doc = copy.deepcopy(EXAMPLE)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


FLOOD = {"name": "flood", "arrival_rate": 1e308, "service_rates": {"cpu": 1e-308}}
# mu * a rounds to 0.0: the offered-load mixture every plan computes would
# divide by it.
UNDERFLOW = {
    "loss_probability": 0.01,
    "services": [
        {"name": "a", "arrival_rate": 10, "service_rates": {"cpu": 100}},
        {"name": "b", "arrival_rate": 0, "service_rates": {"cpu": 5e-324},
         "impact_factors": {"cpu": 0.5}},
    ],
}

# (document, stage that rejects it, message fragment)
MALFORMED = [
    pytest.param(_with(["services"], [1]), "parse", "services[0] must be a JSON object",
                 id="services-entry-not-object"),
    pytest.param(_with(["services"], "web"), "parse", "JSON array", id="services-not-array"),
    pytest.param(_with(["services", 0, "service_rates"], [1]), "parse",
                 "service_rates must be a JSON object", id="service-rates-not-object"),
    pytest.param(_with(["services", 0, "impact_factors"], None), "parse",
                 "impact_factors must be a JSON object", id="impact-factors-not-object"),
    pytest.param(_with(["services", 0, "service_rates"], {"cpu": "abc"}), "parse",
                 "service_rates['cpu']", id="rate-not-numeric"),
    pytest.param(_with(["services", 0, "service_rates", "cpu"], math.inf), "parse",
                 "finite number", id="rate-infinite"),
    pytest.param(_with(["services", 0, "arrival_rate"], True), "parse", "arrival_rate",
                 id="arrival-rate-boolean"),
    pytest.param(_with(["services", 0, "name"], 7), "parse", "name must be a string",
                 id="name-not-string"),
    pytest.param(_with(["services", 1, "loss_probability"], "tight"), "parse",
                 "loss_probability", id="target-not-numeric"),
    pytest.param(_with(["services", 1, "loss_probability"], 2.0), "parse", "(0, 1)",
                 id="target-out-of-range"),
    pytest.param(_with(["power"], "x"), "parse", "power must be a JSON object",
                 id="power-not-object"),
    pytest.param(_with(["power"], {"base_watts": math.nan}), "parse", "power.base_watts",
                 id="power-watts-nan"),
    pytest.param(_with(["xen_idle_factor"], math.nan), "parse", "xen_idle_factor",
                 id="xen-idle-nan"),
    pytest.param(_with(["loss_probability"], "0.01"), "parse", "loss_probability",
                 id="loss-probability-string"),
    pytest.param(_with(["load_model"], 5), "parse", "load_model", id="load-model-not-string"),
    pytest.param([EXAMPLE], "parse", "deployment must be a JSON object",
                 id="document-not-object"),
    pytest.param(UNDERFLOW, "parse", "underflows to 0", id="virtualized-rate-underflows"),
    pytest.param(_with(["services", 0, "impact_factors", "cpu"], 5e-324), "plan",
                 "unsolvable deployment", id="virtualized-load-overflows"),
    pytest.param(_with(["xen_idle_factor"], -1.0), "plan", "unsolvable deployment",
                 id="xen-factor-negative"),
    pytest.param(_with(["services", 0], FLOOD), "plan", "unsolvable deployment",
                 id="load-overflows"),
    pytest.param(_with(["xen_idle_factor"], 1e308), "plan", "power_saving is not finite",
                 id="power-saving-overflows"),
]


def _plan(doc):
    inputs, targets, planner = parse_deployment(doc)
    load_model = load_model_of(doc)
    return report_json(build_report(inputs, planner, load_model), inputs, targets, load_model)


def _reject_nan(token):
    raise AssertionError(f"non-JSON number {token} in a response body")


@pytest.mark.parametrize("doc, stage, fragment", MALFORMED)
def test_plan_core_raises_deployment_error(doc, stage, fragment):
    if stage == "parse":
        with pytest.raises(DeploymentError) as info:
            parse_deployment(doc)
    else:
        with pytest.raises(DeploymentError) as info:
            _plan(doc)
    message = str(info.value)
    assert fragment in message
    assert "\n" not in message


@pytest.mark.parametrize("doc, stage, fragment", MALFORMED)
def test_service_answers_400_with_structured_body(doc, stage, fragment):
    response = PlannerApp().handle("POST", "/plan", json.dumps(doc).encode())
    assert response.status == 400
    body = json.loads(response.body, parse_constant=_reject_nan)
    assert body["error"]["status"] == 400
    assert fragment in body["error"]["message"]


@pytest.mark.parametrize("doc, stage, fragment", MALFORMED)
def test_cli_exits_2_with_one_error_line(doc, stage, fragment, tmp_path, capsys):
    path = tmp_path / "deployment.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert fragment in lines[0]


def test_python_m_repro_prints_no_traceback(tmp_path):
    path = tmp_path / "deployment.json"
    path.write_text(json.dumps(_with(["services", 0, "service_rates"], {"cpu": "abc"})))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", str(path)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def _cli_json(doc, tmp_path, capsys, *flags):
    path = tmp_path / "deployment.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), "--json", *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_document_load_model_is_honoured_by_cli_and_service(tmp_path, capsys):
    doc = _with(["load_model"], "offered")
    cli = _cli_json(doc, tmp_path, capsys)
    service = json.loads(PlannerApp().handle("POST", "/plan", json.dumps(doc).encode()).body)
    assert (cli["load_model"], cli["consolidated_servers"]) == ("offered", 6)
    assert (service["load_model"], service["consolidated_servers"]) == ("offered", 6)


def test_load_model_flag_overrides_the_document(tmp_path, capsys):
    doc = _with(["load_model"], "offered")
    out = _cli_json(doc, tmp_path, capsys, "--load-model", "paper")
    assert (out["load_model"], out["consolidated_servers"]) == ("paper", 4)
    assert load_model_of(EXAMPLE) == "paper"


def test_load_beyond_the_cap_in_a_large_deployment_keeps_its_message():
    # 20 services x 4 kinds: the one Erlang batch of the solve has over 64
    # distinct loads, so it runs the lockstep kernel, which must name the
    # same first unsolvable load as the scalar scan.
    kinds = ("cpu", "disk_io", "memory", "network")
    services = [
        {"name": f"s{i}", "arrival_rate": 10.0 + i,
         "service_rates": {k: 50.0 + 7 * i + j for j, k in enumerate(kinds)}}
        for i in range(20)
    ]
    services[3] = {"name": "s3", "arrival_rate": 1e9, "service_rates": {"cpu": 1.0}}
    doc = {"loss_probability": 0.01, "services": services}
    response = PlannerApp().handle("POST", "/plan", json.dumps(doc).encode())
    assert response.status == 400
    assert json.loads(response.body)["error"]["message"] == (
        "unsolvable deployment: min_servers did not converge below 0.01 "
        "within 50000000 servers (rho=1000000000.0)"
    )


def test_load_beyond_the_server_cap_fails_fast():
    # Carried load never exceeds n, so 1e9 Erlangs cannot fit under the
    # 5e7-server cap: the 400 comes before the scan, not after it.
    doc = {
        "loss_probability": 0.01,
        "services": [{"name": "s", "arrival_rate": 1e9, "service_rates": {"cpu": 1.0}}],
    }
    t0 = time.perf_counter()
    response = PlannerApp().handle("POST", "/plan", json.dumps(doc).encode())
    assert time.perf_counter() - t0 < 1.0
    assert response.status == 400
    assert json.loads(response.body)["error"]["message"] == (
        "unsolvable deployment: min_servers did not converge below 0.01 "
        "within 50000000 servers (rho=1000000000.0)"
    )
