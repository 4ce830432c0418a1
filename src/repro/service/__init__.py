"""Capacity-planner-as-a-service: the paper's analysis behind HTTP.

The ROADMAP's open "capacity-planner-as-a-service" item: a long-running
stdlib-only threaded HTTP service (`repro-serve`) answering
"how many servers / what placement for this service mix" queries
(``POST /plan``) at high request rates, with first-class operational
telemetry — live Prometheus ``/metrics``, per-request trace spans and a
structured JSONL access log, and SLO attainment + error-budget burn
tracking wired into the shared alarm vocabulary.  HTTP load is measured
from outside: ``benchmarks/bench_service_plan.py`` times one warm
``POST /plan`` and ``perfbench`` (``plan_hot``/``plan_cold``) drives
paced load against fresh servers.

Layering: :mod:`.app` is the socket-free request core (unit-testable by
direct invocation), :mod:`.server` the ``http.server`` adapter and CLI,
and :mod:`.slo` and :mod:`.accesslog` the operational state.
"""

from .accesslog import ACCESS_SCHEMA, AccessLog, NullAccessLog, load_access_log
from .app import JSON_CONTENT_TYPE, PlannerApp, Response
from .server import PlannerServer
from .slo import SLOTracker, percentile

__all__ = [
    "ACCESS_SCHEMA",
    "AccessLog",
    "NullAccessLog",
    "load_access_log",
    "JSON_CONTENT_TYPE",
    "PlannerApp",
    "Response",
    "PlannerServer",
    "SLOTracker",
    "percentile",
]
