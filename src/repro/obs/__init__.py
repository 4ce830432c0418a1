"""Observability layer: metrics, traces, telemetry, alarms, run manifests.

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

This package holds instrumentation only, so the hot modules that import
it load nothing else.  The readers of what it records — the run ledger,
the bench harness, the fleet audit and the HTML report — live in
:mod:`repro.reporting`, above the experiments and the service.
"""

from .envinfo import (
    FINGERPRINT_KEYS,
    MODEL_VERSION,
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
    Expectation,
    MetricVerdict,
    Scoreboard,
    check_expectations,
    declare_expectations,
    declared_experiments,
    evaluate_summaries,
    expectations_for,
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
    # profiling & progress
    "PROFILE_SCHEMA",
    "SpanProfiler",
    "ProgressReporter",
    # provenance
    "FINGERPRINT_KEYS",
    "MODEL_VERSION",
    "detect_git_sha",
    # fidelity expectations
    "Expectation",
    "MetricVerdict",
    "Scoreboard",
    "declare_expectations",
    "declared_experiments",
    "expectations_for",
    "check_expectations",
    "evaluate_summaries",
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
