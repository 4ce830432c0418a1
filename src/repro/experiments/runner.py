"""Experiment registry CLI.

``python -m repro.experiments`` (or the ``repro-experiments`` console
script) runs any subset of the paper reproductions and prints their tables
and series.  ``--full`` switches to publication-grade horizons.

Observability: ``--metrics-out`` and ``--trace-out`` enable the
instrumentation layer (:mod:`repro.obs`) and export a Prometheus-format
metric snapshot / a JSONL event trace after the run.  Every observed run
also writes a deterministic run manifest (canonical inputs hash, seed,
model version, wall time, metric snapshot) next to the results: in
``--output`` when given, else beside the metric/trace/profile/report
files, else under ``results/`` for ``--full`` runs.

``--profile-out FILE`` profiles every experiment span (cProfile +
tracemalloc) and dumps one accumulated top-N hotspot report; ``--progress``
prints heartbeat lines to stderr during long sweeps — completed/total,
ETA, trace-event deltas, and a stall warning when nothing has moved within
the stall window.

Fidelity: every observed run grades its results against the paper-expected
values each experiment module declares (``repro.obs.fidelity``), prints the
scoreboard, and appends a ``FIDELITY_<date>_<sha>.json`` artifact next to
the manifest; ``--fail-on-fidelity`` turns a ``fail`` verdict into exit
code 1 (the CI push gate).  ``--report-out FILE`` additionally renders the
whole run — the fleet decision priced under the ``--price-usd-per-kwh``/
``--carbon-g-per-kwh``/``--server-capex-usd`` audit assumptions, manifest,
metrics, trace, bench trend, fidelity scoreboard, experiment summaries —
into one self-contained HTML report (:mod:`repro.obs.report`) with its
``FLEET_*.json`` companion beside it.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from time import perf_counter
from typing import Sequence

from ..obs import (
    AuditAssumptions,
    MetricsRegistry,
    ProgressReporter,
    SpanProfiler,
    TraceLog,
    build_fidelity_artifact,
    build_ledger,
    build_manifest,
    environment_fingerprint,
    evaluate_summaries,
    scoped_registry,
    scoped_trace,
    scoreboard_table,
    write_fidelity_artifact,
    write_manifest,
    write_prometheus,
    write_timeseries_jsonl,
    write_trace_jsonl,
)
from ..obs.ledger import ledger_with_live_results
from ..obs.report import BENCH_BASELINE, add_assumption_arguments, write_ledger_report
from ..parallel import ParallelSweep, SweepStats, record_cache_metrics, shared_cache

# Importing the experiment modules populates the registry.
from . import (  # noqa: F401  (imported for registration side effects)
    applications,
    ext_dynamic,
    ext_multiservice,
    ext_scale,
    ext_telemetry,
    ext_wan,
    fig02_motivation,
    fig05_web_io,
    fig06_web_cpu,
    fig07_vcpu_pinning,
    fig08_db_cpu,
    fig09_operating_point,
    fig10_group1,
    fig11_group2,
    fig12_power_total,
    fig13_power_workload,
    table1,
)
from .base import all_experiments, get_experiment

__all__ = ["main", "run_all"]


def run_all(
    seed: int = 2009, fast: bool = True, jobs: int = 1
) -> dict[str, object]:
    """Run every registered experiment; returns name -> ExperimentResult.

    ``jobs > 1`` fans the experiments out over a process pool via the
    sweep engine; results are bit-identical to ``jobs=1``.
    """
    names = sorted(all_experiments())
    results, _stats = _sweep_experiments(names, seed=seed, fast=fast, jobs=jobs)
    return dict(zip(names, results))


def _accepts_jobs(fn) -> bool:
    """Whether an experiment ``run`` callable takes the ``jobs`` keyword."""
    try:
        return "jobs" in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtin callables
        return False


def _experiment_task(task: tuple):
    """Run one registered experiment (sweep-engine worker).

    Top-level so it pickles; importing this module in a spawned worker
    re-populates the experiment registry.
    """
    name, seed, fast, inner_jobs = task
    fn = get_experiment(name)
    if inner_jobs > 1 and _accepts_jobs(fn):
        return fn(seed=seed, fast=fast, jobs=inner_jobs)
    return fn(seed=seed, fast=fast)


def _sweep_experiments(
    names: Sequence[str], *, seed: int, fast: bool, jobs: int
) -> tuple[list, SweepStats]:
    """Engine-routed experiment runs (deterministic at every ``jobs``).

    With several experiments requested the fan-out happens *across*
    experiments (one task each, no nested pools); a single requested
    experiment instead passes ``jobs`` down to its internal grid when it
    supports one (the sweep-heavy modules do).
    """
    inner_jobs = jobs if len(names) == 1 else 1
    sweep = ParallelSweep(
        _experiment_task,
        jobs=1 if inner_jobs > 1 else jobs,
        chunk_size=1,
        name="experiments",
    )
    results = sweep.run([(name, seed, fast, inner_jobs) for name in names])
    return results, sweep.stats


def _manifest_dir(args) -> Path | None:
    """Where the run manifest lands (None = no manifest written)."""
    if args.output:
        return Path(args.output)
    if args.metrics_out:
        return Path(args.metrics_out).parent
    if args.trace_out:
        return Path(args.trace_out).parent
    if args.profile_out:
        return Path(args.profile_out).parent
    if args.timeseries_out:
        return Path(args.timeseries_out).parent
    if args.report_out:
        return Path(args.report_out).parent
    if args.full:
        return Path("results")
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (default: all); see --list",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan experiments (or a single experiment's parameter grid) "
        "out over N worker processes; results are bit-identical to "
        "--jobs 1 at the same seed (the tested determinism guarantee)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="publication-grade horizons (slower, tighter statistics); "
        "also writes a run manifest under results/",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        help="also export each artifact's data as DIR/<id>.csv and .json",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="enable observability and write a Prometheus-format metric "
        "snapshot to FILE after the run",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="enable observability and write the JSONL event trace "
        "(one span per experiment) to FILE after the run",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        help="profile every experiment span (cProfile + tracemalloc) and "
        "write the accumulated top-N hotspot report to FILE",
    )
    parser.add_argument(
        "--timeseries-out",
        metavar="FILE",
        help="write the virtual-time telemetry recorded by instrumented "
        "experiments (schema repro.timeseries/v1, one JSON document per "
        "line: series then alarm events) to FILE; bit-identical across "
        "--jobs values at the same seed",
    )
    parser.add_argument(
        "--alarms",
        action="store_true",
        help="print each threshold-alarm transition recorded by the run "
        "(rule, state, virtual time, value) after the experiment output",
    )
    parser.add_argument(
        "--control",
        action="store_true",
        help="print each consolidation-controller decision recorded by the "
        "run (phase, action, virtual time, pressure, fleet sizes) after "
        "the experiment output",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print heartbeat progress lines (ETA, trace deltas, stall "
        "detection) to stderr during the sweep",
    )
    parser.add_argument(
        "--report-out",
        metavar="FILE",
        help="render the run plus every on-disk artifact of its output "
        "directory and the bench baselines (fleet decision, fidelity "
        "scoreboard, manifest, metrics, trace, bench trend, summaries) "
        "into one self-contained HTML file, with FLEET_*.json beside it",
    )
    add_assumption_arguments(
        parser, ("price_usd_per_kwh", "carbon_g_per_kwh", "server_capex_usd")
    )
    parser.add_argument(
        "--fail-on-fidelity",
        action="store_true",
        help="exit 1 when any fidelity verdict is 'fail' (CI push gate)",
    )
    args = parser.parse_args(argv)

    try:
        audit_assumptions = AuditAssumptions.from_mapping(vars(args))
    except ValueError as exc:
        parser.error(str(exc))

    if args.list:
        for name in sorted(all_experiments()):
            print(name)
        return 0

    names = args.experiments or sorted(all_experiments())
    manifest_dir = _manifest_dir(args)
    observed = manifest_dir is not None or args.progress

    registry = MetricsRegistry("experiments") if observed else None
    trace = TraceLog() if observed else None
    profiler = SpanProfiler() if args.profile_out else None
    reporter = (
        ProgressReporter(
            total=len(names),
            registry=registry,
            trace=trace,
        )
        if args.progress
        else None
    )

    results_by_name: dict[str, object] = {}
    sweep_stats: dict[str, object] | None = None
    cache_baseline = shared_cache().stats()

    def emit(result) -> None:
        print("=" * 72)
        print(f"[{result.experiment}] {result.title}")
        print("=" * 72)
        print(result.text)
        if args.alarms:
            for doc in result.artifacts.get("timeseries", ()):
                if doc.get("kind") != "alarm":
                    continue
                print(
                    f"  alarm {doc['rule']} {doc['state']} t={doc['t']:g} "
                    f"value={doc['value']:g} threshold={doc['threshold']:g}"
                )
        if args.control:
            for doc in result.artifacts.get("control", ()):
                if "kind" not in doc:
                    continue
                print(
                    f"  control [{doc.get('phase', '?')}] {doc['kind']} "
                    f"t={doc['t']:g} pressure={doc['pressure']:g} "
                    f"servers={doc['servers_before']}->{doc['servers_after']} "
                    f"migrations={doc['migrations']}"
                )
        if args.output:
            csv_path, json_path = result.export(args.output)
            print(f"\n  exported: {csv_path}  {json_path}")
        print()

    def run() -> None:
        for name in names:
            fn = get_experiment(name)
            if trace is not None:
                span = (
                    profiler.span(trace, "experiment", experiment=name)
                    if profiler is not None
                    else trace.span("experiment", experiment=name)
                )
                with span as span_fields:
                    result = fn(seed=args.seed, fast=not args.full)
                    span_fields["rows"] = len(result.rows)
            else:
                result = fn(seed=args.seed, fast=not args.full)
            results_by_name[name] = result
            if reporter is not None:
                reporter.advance(name)
            emit(result)

    def run_parallel() -> None:
        # Collect via the sweep engine, then render in name order with the
        # same emit() the serial path uses — stdout is byte-identical to
        # --jobs 1 because the results are.
        nonlocal sweep_stats
        results, stats = _sweep_experiments(
            names, seed=args.seed, fast=not args.full, jobs=args.jobs
        )
        sweep_stats = stats.as_dict()
        for name, result in zip(names, results):
            results_by_name[name] = result
            if trace is not None:
                trace.emit("experiment_done", experiment=name, rows=len(result.rows))
            if reporter is not None:
                reporter.advance(name)
            emit(result)

    runner = run if args.jobs == 1 else run_parallel
    t0 = perf_counter()
    if observed:
        with scoped_registry(registry), scoped_trace(trace):
            if reporter is not None:
                reporter.start()
            try:
                runner()
            finally:
                if reporter is not None:
                    reporter.finish()
            # Surface this process's Erlang-cache activity next to the
            # origin="workers" counters the sweep engine already merged.
            record_cache_metrics(registry, cache_baseline)
    else:
        runner()
    wall_time = perf_counter() - t0

    # Telemetry documents ride inside the (picklable) results, never in
    # worker-process global state — which is what keeps --timeseries-out
    # bit-identical across --jobs values.  Name order matches stdout.
    telemetry_docs: list = []
    control_docs: list = []
    for name in sorted(results_by_name):
        artifacts = getattr(results_by_name[name], "artifacts", None) or {}
        telemetry_docs.extend(artifacts.get("timeseries", ()))
        control_docs.extend(
            d for d in artifacts.get("control", ()) if "kind" in d
        )

    # Grade the run against the paper-expected values declared next to
    # each experiment, and show the scoreboard with the results.
    scoreboard = evaluate_summaries(
        {name: result.summary for name, result in results_by_name.items()}
    )
    if scoreboard.verdicts:
        print(scoreboard_table(scoreboard))
    fidelity_doc = build_fidelity_artifact(
        scoreboard,
        extra={"inputs": {"seed": args.seed, "full": bool(args.full)}},
    )

    manifest = None
    try:
        if observed:
            if args.metrics_out:
                write_prometheus(registry, args.metrics_out)
            if args.trace_out:
                write_trace_jsonl(trace, args.trace_out)
            if profiler is not None:
                profiler.write(args.profile_out)
            if trace is not None and trace.dropped:
                print(
                    f"warning: trace ring dropped {trace.dropped} event(s) "
                    f"(capacity {trace.capacity}); by kind: "
                    f"{trace.dropped_by_kind}",
                    file=sys.stderr,
                )
            if manifest_dir is not None:
                manifest = build_manifest(
                    {
                        "tool": "repro-experiments",
                        "experiments": list(names),
                        "seed": args.seed,
                        "full": bool(args.full),
                    },
                    seed=args.seed,
                    wall_time_s=wall_time,
                    registry=registry,
                    trace=trace,
                    # jobs and audit live outside `inputs` on purpose: the
                    # inputs hash must be identical across --jobs values
                    # and price assumptions (the results are), while two
                    # fleet reports built from the same runs at
                    # different prices stay distinguishable via `audit`.
                    extra={
                        "parallel": {
                            "jobs": args.jobs,
                            "cache": shared_cache().stats(),
                            "sweep": sweep_stats,
                        },
                        "audit": audit_assumptions.as_dict(),
                        "timeseries": {
                            "out": args.timeseries_out,
                            "documents": len(telemetry_docs),
                            "alarm_events": sum(
                                1
                                for d in telemetry_docs
                                if d.get("kind") == "alarm"
                            ),
                            # Alarms that never cleared before the run
                            # ended — recorded so post-hoc audits can see
                            # runs that finished mid-incident.
                            "open_alarms": [
                                {
                                    "rule": d["rule"],
                                    "alarm_kind": d.get("alarm_kind"),
                                    "series": d.get("series"),
                                    "t": d.get("t"),
                                    "labels": d.get("labels", {}),
                                }
                                for d in telemetry_docs
                                if d.get("kind") == "alarm"
                                and d.get("state") == "open_at_exit"
                            ],
                            "alarms_printed": bool(args.alarms),
                        },
                        # Controller decisions, like jobs/audit, live
                        # outside `inputs`: the decisions are part of the
                        # results, not the run's identity.
                        "control": {
                            "decisions": len(control_docs),
                            "boots": sum(d.get("booted", 0) for d in control_docs),
                            "shutdowns": sum(
                                d.get("shut_down", 0) for d in control_docs
                            ),
                            "migrations": sum(
                                d.get("migrations", 0) for d in control_docs
                            ),
                            "decisions_printed": bool(args.control),
                        },
                    },
                )
                manifest_path = write_manifest(
                    manifest, Path(manifest_dir) / "run_manifest.json"
                )
                print(f"run manifest: {manifest_path}", file=sys.stderr)
        if args.timeseries_out:
            ts_path = write_timeseries_jsonl(telemetry_docs, args.timeseries_out)
            print(
                f"timeseries: {ts_path} ({len(telemetry_docs)} documents)",
                file=sys.stderr,
            )
        if manifest_dir is not None and scoreboard.verdicts:
            fidelity_path = write_fidelity_artifact(fidelity_doc, manifest_dir)
            print(
                f"fidelity: {scoreboard.overall} -> {fidelity_path}",
                file=sys.stderr,
            )
        if args.report_out:
            # The run that just finished is authoritative over anything
            # on disk (ledger_with_live_results puts it first).
            ledger = ledger_with_live_results(
                build_ledger([manifest_dir, BENCH_BASELINE.parent]),
                {name: r.summary for name, r in results_by_name.items()},
                seed=args.seed,
                env=environment_fingerprint(),
            )
            trace_events = (
                [
                    {"ts": e.ts, "kind": e.kind, "name": e.name, **e.fields}
                    for e in trace.events()
                ]
                if trace is not None
                else None
            )
            report_path, fleet_path, _ = write_ledger_report(
                ledger,
                args.report_out,
                assumptions=audit_assumptions,
                fidelity_doc=fidelity_doc if scoreboard.verdicts else None,
                title="repro-experiments run report",
                manifest=manifest,
                metrics=registry.snapshot() if registry is not None else None,
                trace_events=trace_events,
                timeseries_docs=telemetry_docs or None,
                results=[
                    {
                        "experiment": r.experiment,
                        "title": r.title,
                        "summary": dict(r.summary),
                    }
                    for _, r in sorted(results_by_name.items())
                ],
            )
            print(f"report: {report_path}", file=sys.stderr)
            print(f"fleet artifact: {fleet_path}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot write observability output: {exc}", file=sys.stderr)
        return 1
    if args.fail_on_fidelity and scoreboard.overall == "fail":
        print(
            f"error: fidelity gate failed — {len(scoreboard.fails)} "
            "metric(s) outside the drift band",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
