"""Command-line consolidation planner (``repro-plan`` / ``python -m repro``).

Feeds a JSON deployment description through the utility analytic model and
prints the consolidation report — the tool an operator would actually run.
Parsing, validation and the report document live in :mod:`repro.core.plan`
(its docstring has the schema, ``examples/deployment.json`` an example);
this module reads the file, renders the result and maps a
:class:`~repro.core.plan.DeploymentError` to exit code 2.

Flags: ``--load-model {paper,offered}`` selects the Eq. 4 reading (else
the deployment's own ``load_model``, else ``paper``, as ``POST /plan``),
``--json`` emits machine-readable output instead of the text report, and
``--metrics-out`` / ``--trace-out`` enable the observability layer
(:mod:`repro.obs`) and export a Prometheus metric snapshot / JSONL trace
of the planning run; ``--profile-out`` additionally profiles the run
(cProfile + tracemalloc) and dumps a top-N hotspot report.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Sequence

from .core import ModelInputs, ResourceKind
from .core.plan import (
    LOAD_MODELS,
    DeploymentError,
    build_report,
    load_model_of,
    parse_deployment,
    report_json,
)
from .obs import (
    MetricsRegistry,
    SpanProfiler,
    TraceLog,
    scoped_registry,
    scoped_trace,
    write_prometheus,
    write_trace_jsonl,
)

__all__ = ["main", "parse_deployment", "DeploymentError"]

# The plan core's entry points under the names scripts have long imported.
_build_report = build_report
_report_json = report_json


def _control_preview(inputs: ModelInputs, power_model) -> dict:
    """One-day reactive-consolidation preview for ``--control``.

    Treats each service's planned arrival rate as its daily peak with a
    40% off-peak trough (the classic Internet diurnal swing), then runs
    the reactive :class:`~repro.control.ConsolidationController` over the
    deterministic day and reports what it would save against keeping the
    peak fleet on — the planning-time view of the ext-dynamic experiment.
    """
    from .control import ConsolidationController, ControllerConfig, FleetState
    from .core.dynamic import DynamicCapacityPlanner
    from .virtualization.placement import VmDemand
    from .workloads.traces import DiurnalProfile, TraceBundle

    import numpy as np

    profiles = [
        DiurnalProfile(
            s.name, base=0.4 * s.arrival_rate, peak=s.arrival_rate, noise=0.0
        )
        for s in inputs.services
    ]
    bundle = TraceBundle.sample(
        profiles, days=1, samples_per_hour=2, rng=np.random.default_rng(0)
    )
    dyn = DynamicCapacityPlanner(
        list(inputs.services),
        inputs.loss_probability,
        power_model=power_model,
        period_length=1800.0,
        hold_periods=1,
    )
    ticks = [
        {name: float(tr[i]) for name, tr in bundle.traces.items()}
        for i in range(bundle.hours.size)
    ]
    needed = [dyn.servers_needed(rates) for rates in ticks]
    peak_needed = max(needed)
    base_needed = min(needed)
    vms = [
        VmDemand(f"vm-{i}", {ResourceKind.CPU: 0.25})
        for i in range(2 * base_needed)
    ]
    fleet = FleetState(
        int(np.ceil(1.5 * peak_needed)) + 2,
        vms,
        initial_on=int(np.ceil(1.15 * base_needed)),
    )
    controller = ConsolidationController(
        dyn, fleet, ControllerConfig(interval=0.5, pool="plan-preview")
    )
    for i, rates in enumerate(ticks):
        controller.tick(float(bundle.hours[i]), rates, dyn.offered_load(rates))
    summary = controller.summary()
    static_hours = peak_needed * 24.0
    out = {
        "static_peak_servers": peak_needed,
        "static_server_hours_per_day": round(static_hours, 1),
        "reactive_server_hours_per_day": summary["server_hours"],
        "saving_pct": round(
            100.0 * (1.0 - summary["server_hours"] / static_hours), 1
        )
        if static_hours
        else 0.0,
        "boots": summary["boots"],
        "shutdowns": summary["shutdowns"],
        "migrations": summary["migrations"],
    }
    if out["saving_pct"] <= 0.0:
        out["note"] = (
            "safety headroom dominates at this fleet size; dynamic "
            "control pays off at larger scale (see the ext-dynamic "
            "experiment)"
        )
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-plan",
        description="Plan VM-based server consolidation with the utility analytic model.",
    )
    parser.add_argument("deployment", help="path to the deployment JSON file")
    parser.add_argument(
        "--load-model",
        choices=LOAD_MODELS,
        help="Eq. 4 reading: the paper's arithmetic mixture, or the "
        "conservative offered load (recommended for hard SLAs); default: "
        "the deployment's load_model, else paper",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument(
        "--control",
        action="store_true",
        help="append a one-day reactive-consolidation preview (each "
        "service's rate as its diurnal peak, 40%% trough): projected "
        "server-hour saving, boots, shutdowns, migrations",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="enable observability and write a Prometheus-format metric "
        "snapshot to FILE",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="enable observability and write the JSONL event trace to FILE",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        help="profile the planning run (cProfile + tracemalloc) and write "
        "the top-N hotspot report to FILE",
    )
    args = parser.parse_args(argv)

    path = Path(args.deployment)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ValueError, RecursionError) as exc:
        print(f"error: invalid JSON in {path}: {exc}", file=sys.stderr)
        return 2

    observed = bool(args.metrics_out or args.trace_out or args.profile_out)
    registry = MetricsRegistry("repro-plan") if observed else None
    trace = TraceLog() if observed else None
    profiler = SpanProfiler() if args.profile_out else None

    try:
        inputs, targets, planner = parse_deployment(doc)
        load_model = load_model_of(doc, args.load_model)
        # One solve, under the requested Eq. 4 reading, for the whole report.
        with ExitStack() as scope:
            if observed:
                scope.enter_context(scoped_registry(registry))
                scope.enter_context(scoped_trace(trace))
                attrs = {"deployment": str(path), "load_model": load_model}
                scope.enter_context(
                    profiler.span(trace, "plan", **attrs)
                    if profiler is not None
                    else trace.span("plan", **attrs)
                )
            report = build_report(inputs, planner, load_model)
        doc_out = report_json(report, inputs, targets, load_model)
    except DeploymentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if observed:
        try:
            if args.metrics_out:
                write_prometheus(registry, args.metrics_out)
            if args.trace_out:
                write_trace_jsonl(trace, args.trace_out)
            if profiler is not None:
                profiler.write(args.profile_out)
        except OSError as exc:
            print(f"error: cannot write observability output: {exc}", file=sys.stderr)
            return 1

    preview = (
        _control_preview(inputs, planner.power_model) if args.control else None
    )
    if args.json:
        if preview is not None:
            doc_out["control_preview"] = preview
        print(json.dumps(doc_out, indent=2))
    else:
        print(report.to_text())
        if preview is not None:
            print()
            print("  Dynamic consolidation preview (1-day diurnal swing):")
            print(
                f"    static peak fleet : {preview['static_peak_servers']} "
                f"servers ({preview['static_server_hours_per_day']} server-hours/day)"
            )
            print(
                f"    reactive control  : "
                f"{preview['reactive_server_hours_per_day']} server-hours/day "
                f"({preview['saving_pct']}% saving)"
            )
            print(
                f"    actions           : {preview['boots']} boots, "
                f"{preview['shutdowns']} shutdowns, "
                f"{preview['migrations']} migrations"
            )
            if "note" in preview:
                print(f"    note              : {preview['note']}")
        if targets:
            print()
            print("  Per-service QoS targets:")
            for name, b in doc_out["per_service_targets"].items():
                print(f"    {name:<12s} B = {b:g}")
            print(
                "  Consolidated servers under targets: "
                f"{doc_out['consolidated_servers_with_targets']}"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
