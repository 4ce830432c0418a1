"""Deployment documents in, consolidation report documents out.

The one validation boundary for planning input: ``repro-plan`` and
``POST /plan`` both call :func:`parse_deployment`, :func:`build_report`
and :func:`report_json`, and every failure along the way raises
:class:`DeploymentError` with a one-line message (CLI exit 2, HTTP 400).

A document (``examples/deployment.json`` is one) sets ``loss_probability``
and a ``services`` array.  Each service has a ``name``, an
``arrival_rate`` and ``service_rates`` per resource kind, and optionally
``impact_factors`` per resource and its own ``loss_probability`` target.
Optional top-level fields: ``power`` (``base_watts``, ``max_watts``),
``xen_idle_factor``, ``xen_workload_factor`` and ``load_model``.  The
document, each service, ``service_rates``, ``impact_factors`` and
``power`` must be JSON objects, every number a finite JSON number (an
``int`` or ``float``, not a boolean), and ``load_model`` one of
:data:`LOAD_MODELS`.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Mapping

from . import multiqos
from .consolidation import ConsolidationPlanner, ConsolidationReport
from .inputs import ModelInputs, ResourceKind, ServiceSpec
from .model import LOAD_MODELS
from .power import ServerPowerModel

__all__ = [
    "LOAD_MODELS",
    "DeploymentError",
    "parse_deployment",
    "load_model_of",
    "build_report",
    "report_json",
]

_JSON_NUMBERS = frozenset((int, float))  # exact types: a bool is not a number
_MAX = sys.float_info.max


class DeploymentError(ValueError):
    """A deployment that cannot be planned (exit code 2 / HTTP 400)."""


def _object(value: Any, what: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise DeploymentError(f"{what} must be a JSON object")
    return value


def _number(value: Any, what: str, key: str | None = None) -> float:
    # The range check is false for NaN, infinities and out-of-range integers.
    if type(value) in _JSON_NUMBERS and -_MAX <= value <= _MAX:
        return float(value)
    if key is not None:
        what = f"{what}[{key!r}]"
    raise DeploymentError(f"{what} must be a finite number, got {value!r}")


def _per_resource(value: Any, what: str) -> dict[ResourceKind, float]:
    out = {}
    for name, v in _object(value, what).items():
        try:
            kind = ResourceKind(name)
        except ValueError:
            valid = ", ".join(r.value for r in ResourceKind)
            raise DeploymentError(f"unknown resource {name!r}; valid kinds: {valid}") from None
        out[kind] = _number(v, what, name)
    return out


def _service(index: int, entry: Any) -> tuple[ServiceSpec, float | None]:
    entry = _object(entry, f"services[{index}]")
    for field in ("name", "arrival_rate", "service_rates"):
        if field not in entry:
            raise DeploymentError(f"service entry missing {field!r}: {entry}")
    name = entry["name"]
    if not isinstance(name, str):
        raise DeploymentError(f"services[{index}].name must be a string, got {name!r}")
    try:
        spec = ServiceSpec(
            name,
            _number(entry["arrival_rate"], "arrival_rate"),
            _per_resource(entry["service_rates"], "service_rates"),
            _per_resource(entry.get("impact_factors", {}), "impact_factors"),
        )
        target = entry.get("loss_probability")
        if target is not None:
            target = _number(target, "loss_probability")
            if not 0.0 < target < 1.0:
                raise ValueError(f"loss_probability must lie in (0, 1), got {target}")
    except ValueError as exc:  # DeploymentError included
        raise DeploymentError(f"invalid service {name!r}: {exc}") from exc
    return spec, target


def load_model_of(doc: Mapping[str, Any], override: str | None = None) -> str:
    """The Eq. 4 reading to plan ``doc`` under.

    ``override`` (``repro-plan --load-model``) when given, else the
    document's top-level ``load_model``, else ``"paper"``.
    """
    return override if override is not None else doc.get("load_model", "paper")


def parse_deployment(doc: Any) -> tuple[ModelInputs, dict[str, float], ConsolidationPlanner]:
    """Validate a deployment document.

    Returns ``(inputs, per_service_targets, planner)``.  The top-level
    ``load_model`` is checked too; callers read it afterwards with
    :func:`load_model_of`.
    """
    doc = _object(doc, "deployment")
    services = doc.get("services")
    if not services:
        raise DeploymentError("deployment must list at least one service")
    if not isinstance(services, list):
        raise DeploymentError("services must be a JSON array of service objects")
    if "loss_probability" not in doc:
        raise DeploymentError("deployment must set loss_probability")
    load_model = load_model_of(doc)
    if load_model not in LOAD_MODELS:
        raise DeploymentError(f"load_model must be one of {LOAD_MODELS}, got {load_model!r}")
    specs, targets = [], {}
    for index, entry in enumerate(services):
        spec, target = _service(index, entry)
        specs.append(spec)
        if target is not None:
            targets[spec.name] = target
    loss_probability = _number(doc["loss_probability"], "loss_probability")
    power = _object(doc.get("power", {}), "power")
    base_watts = _number(power.get("base_watts", 250.0), "power.base_watts")
    max_watts = _number(power.get("max_watts", 295.0), "power.max_watts")
    xen_idle = _number(doc.get("xen_idle_factor", 1.0), "xen_idle_factor")
    xen_workload = _number(doc.get("xen_workload_factor", 1.0), "xen_workload_factor")
    try:
        inputs = ModelInputs(tuple(specs), loss_probability)
        planner = ConsolidationPlanner(
            ServerPowerModel(base_watts, max_watts), xen_idle, xen_workload
        )
    except ValueError as exc:
        raise DeploymentError(str(exc)) from exc
    return inputs, targets, planner


def build_report(
    inputs: ModelInputs, planner: ConsolidationPlanner, load_model: str = "paper"
) -> ConsolidationReport:
    """The planner's report; a load too large to invert or a platform
    factor the power model rejects raises :class:`DeploymentError`."""
    try:
        return planner.plan_inputs(inputs, load_model)
    except (ValueError, RuntimeError) as exc:
        raise DeploymentError(f"unsolvable deployment: {exc}") from exc


def report_json(
    report: ConsolidationReport,
    inputs: ModelInputs,
    targets: Mapping[str, float],
    load_model: str,
) -> dict:
    """The machine-readable report, sized under the per-service targets too."""
    out = {
        "load_model": load_model,
        "loss_probability": inputs.loss_probability,
        "dedicated_servers": report.dedicated_servers,
        "consolidated_servers": report.consolidated_servers,
        "infrastructure_saving": report.infrastructure_saving,
        "power_saving": report.power_saving,
        "utilization_improvement": report.utilization_improvement,
        "dedicated_breakdown": {
            d.service.name: d.servers for d in report.solution.dedicated
        },
        "consolidated_bottleneck": (
            str(report.solution.consolidated_bottleneck)
            if report.solution.consolidated_bottleneck
            else None
        ),
    }
    # JSON has no NaN or infinity: finite inputs can still overflow.
    for key in ("infrastructure_saving", "power_saving", "utilization_improvement"):
        if not math.isfinite(out[key]):
            raise DeploymentError(f"unsolvable deployment: {key} is not finite")
    if targets:
        try:
            # Looked up on the module at call time, so a wrapper installed
            # on ``multiqos`` sees the call whatever the import order.
            multi = multiqos.solve_with_targets(inputs, targets, load_model)
        except (ValueError, RuntimeError) as exc:
            raise DeploymentError(f"unsolvable deployment: {exc}") from exc
        out["per_service_targets"] = dict(multi.targets)
        out["consolidated_servers_with_targets"] = multi.consolidated_servers
        out["dedicated_servers_with_targets"] = multi.dedicated_servers
    return out
