"""Observability layer: metrics, traces, and run manifests.

Dependency-free instrumentation for the whole stack — the discrete-event
engine, the Erlang solvers, the dispatchers, and the experiment runner all
carry hooks into this package.  The default state is **off**: the global
registry and trace log are no-op singletons, and instrumented hot loops
pay at most a cached boolean check per event (guarded by
``benchmarks/bench_obs_overhead.py``).

Typical usage::

    from repro import obs

    with obs.scoped_registry() as registry, obs.scoped_trace() as trace:
        with trace.span("solve", service="web"):
            ...  # instrumented code records into `registry` / `trace`
        print(obs.prometheus_text(registry))

The experiment runner (``repro-experiments --metrics-out --trace-out``)
and the planner CLI (``repro-plan``) wire this up from the command line.
"""

from .bench import (
    BENCH_SCHEMA,
    BenchResult,
    BenchSpec,
    build_artifact,
    discover_suite,
    merge_artifacts,
    run_specs,
    select_specs,
    validate_artifact,
    write_artifact,
)
from .compare import (
    BenchDelta,
    Comparison,
    compare_artifacts,
    load_artifact,
    verdict_table,
)
from .envinfo import (
    FINGERPRINT_KEYS,
    append_only_artifact_path,
    detect_git_sha,
    environment_fingerprint,
)
from .export import (
    MANIFEST_SCHEMA,
    PROMETHEUS_CONTENT_TYPE,
    build_manifest,
    inputs_hash,
    parse_prometheus_text,
    prometheus_text,
    write_manifest,
    write_prometheus,
    write_trace_jsonl,
)
from .fidelity import (
    FIDELITY_SCHEMA,
    Expectation,
    MetricVerdict,
    Scoreboard,
    build_fidelity_artifact,
    check_expectations,
    declare_expectations,
    declared_experiments,
    evaluate_summaries,
    expectations_for,
    load_fidelity_artifact,
    scoreboard_table,
    validate_fidelity_artifact,
    write_fidelity_artifact,
)
from .report import render_report, write_report
from .ledger import (
    LEDGER_KINDS,
    LedgerEntry,
    RunLedger,
    SkippedFile,
    build_ledger,
    fingerprint_key,
)
from .fleet import (
    FLEET_SCHEMA,
    AuditAssumptions,
    ScenarioCost,
    build_fleet_artifact,
    build_fleet_summary,
    load_fleet_artifact,
    scenario_costs,
    scenario_deltas,
    validate_fleet_artifact,
    write_fleet_artifact,
)
from .profileutil import PROFILE_SCHEMA, SpanProfiler
from .progress import ProgressReporter
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
    get_registry,
    scoped_registry,
    set_registry,
)
from .timeseries import (
    TIMESERIES_SCHEMA,
    CounterSeries,
    GaugeSeries,
    NullTelemetryBus,
    TelemetryBus,
    get_bus,
    load_timeseries_jsonl,
    scoped_bus,
    set_bus,
    validate_timeseries_doc,
    write_timeseries_jsonl,
)
from .alarms import AlarmEvent, AlarmManager, AlarmRule, AlarmState
from .trace import (
    NullTraceLog,
    TraceEvent,
    TraceLog,
    get_trace,
    scoped_trace,
    set_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "scoped_registry",
    "TraceEvent",
    "TraceLog",
    "NullTraceLog",
    "get_trace",
    "set_trace",
    "scoped_trace",
    "prometheus_text",
    "parse_prometheus_text",
    "PROMETHEUS_CONTENT_TYPE",
    "write_prometheus",
    "write_trace_jsonl",
    "inputs_hash",
    "environment_fingerprint",
    "build_manifest",
    "write_manifest",
    "MANIFEST_SCHEMA",
    # bench harness
    "BENCH_SCHEMA",
    "BenchSpec",
    "BenchResult",
    "discover_suite",
    "select_specs",
    "run_specs",
    "build_artifact",
    "merge_artifacts",
    "validate_artifact",
    "write_artifact",
    # comparison
    "BenchDelta",
    "Comparison",
    "compare_artifacts",
    "load_artifact",
    "verdict_table",
    # profiling & progress
    "PROFILE_SCHEMA",
    "SpanProfiler",
    "ProgressReporter",
    # provenance
    "FINGERPRINT_KEYS",
    "append_only_artifact_path",
    "detect_git_sha",
    # fidelity scoreboard
    "FIDELITY_SCHEMA",
    "Expectation",
    "MetricVerdict",
    "Scoreboard",
    "declare_expectations",
    "declared_experiments",
    "expectations_for",
    "check_expectations",
    "evaluate_summaries",
    "build_fidelity_artifact",
    "validate_fidelity_artifact",
    "write_fidelity_artifact",
    "load_fidelity_artifact",
    "scoreboard_table",
    # html report
    "render_report",
    "write_report",
    # fleet run ledger
    "LEDGER_KINDS",
    "LedgerEntry",
    "SkippedFile",
    "RunLedger",
    "build_ledger",
    "fingerprint_key",
    # fleet cost/energy/carbon aggregation
    "FLEET_SCHEMA",
    "AuditAssumptions",
    "ScenarioCost",
    "scenario_costs",
    "scenario_deltas",
    "build_fleet_summary",
    "build_fleet_artifact",
    "validate_fleet_artifact",
    "write_fleet_artifact",
    "load_fleet_artifact",
    # virtual-time telemetry bus
    "TIMESERIES_SCHEMA",
    "CounterSeries",
    "GaugeSeries",
    "TelemetryBus",
    "NullTelemetryBus",
    "get_bus",
    "set_bus",
    "scoped_bus",
    "validate_timeseries_doc",
    "write_timeseries_jsonl",
    "load_timeseries_jsonl",
    # threshold alarms
    "AlarmRule",
    "AlarmState",
    "AlarmEvent",
    "AlarmManager",
]
