"""HTTP-agnostic request handling for the planner service.

:class:`PlannerApp` is the whole service minus the sockets: it maps
``(method, path, body, headers)`` to a :class:`Response`, so unit tests
drive it by direct invocation and the socket layer
(:mod:`repro.service.server`) stays a thin adapter.  Endpoints:

- ``POST /plan`` — deployment JSON in (same document ``repro-plan``
  reads; its optional top-level ``load_model`` picks the Eq. 4 reading),
  full consolidation report out.  Parsing, planning and the report
  document come from :mod:`repro.core.plan`, as for ``repro-plan``; a
  :class:`~repro.core.plan.DeploymentError` is a 400 with a structured
  error body.  Responses are cached on the SHA-256 of the raw request
  body, which both guarantees byte-identical answers for identical
  requests and makes the warm-cache path allocation-light; the Erlang
  inversions underneath share the process-wide
  :func:`repro.queueing.cache.shared_cache`.
- ``GET /metrics`` — live Prometheus text exposition of the app's
  registry (request counters by endpoint/status, latency histograms,
  in-flight gauge, shared-cache counters, uptime).
- ``GET /healthz`` / ``GET /readyz`` — liveness vs readiness; readiness
  flips to 503 while draining or while the SLO error budget burns.
- ``GET /status`` — JSON snapshot: SLO attainment, cache stats, alarms.

Every request runs inside a trace span carrying a propagated
``X-Request-Id`` (honoured from the client or generated), is appended to
the structured access log, and — for ``/plan`` — feeds the
:class:`~repro.service.slo.SLOTracker`.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..core.plan import DeploymentError, build_report, parse_deployment, report_json
from ..obs.export import PROMETHEUS_CONTENT_TYPE, prometheus_text
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceLog
from ..queueing.cache import record_cache_metrics, shared_cache
from .accesslog import NullAccessLog
from .slo import SLOTracker

__all__ = ["PlannerApp", "Response", "JSON_CONTENT_TYPE"]

JSON_CONTENT_TYPE = "application/json"


@dataclass(frozen=True)
class Response:
    """What the socket layer writes back; body is final bytes."""

    status: int
    body: bytes
    content_type: str = JSON_CONTENT_TYPE
    headers: tuple[tuple[str, str], ...] = field(default_factory=tuple)


def _json_response(status: int, doc: Mapping[str, Any]) -> Response:
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return Response(status=status, body=body + b"\n")


def _error_response(status: int, message: str, request_id: str) -> Response:
    """Structured error body: machine-readable, carries the request id."""
    return _json_response(
        status, {"error": {"status": status, "message": message}, "request_id": request_id}
    )


class PlannerApp:
    """The planner service's request handling, metrics, and SLO state."""

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        trace: TraceLog | None = None,
        slo: SLOTracker | None = None,
        access_log=None,
        plan_cache_size: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if plan_cache_size < 1:
            raise ValueError(f"plan_cache_size must be >= 1, got {plan_cache_size}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace if trace is not None else TraceLog()
        self.slo = slo if slo is not None else SLOTracker()
        self.access_log = access_log if access_log is not None else NullAccessLog()
        self._clock = clock
        self._t0 = clock()
        self.draining = False
        self._lock = threading.Lock()
        self._in_flight = 0
        self._request_seq = 0
        self._plan_cache: OrderedDict[bytes, Response] = OrderedDict()
        self._plan_cache_size = int(plan_cache_size)
        self._alarm_events: list = []
        self._last_alarm_poll = -1.0
        self._cache_baseline = shared_cache().stats()
        self._in_flight_gauge = self.registry.gauge(
            "service_in_flight_requests", help="requests currently being handled"
        )
        self._uptime_gauge = self.registry.gauge(
            "service_uptime_seconds", help="seconds since the app was constructed"
        )

    # -- plumbing --------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Requests currently inside :meth:`handle` (drain-wait signal)."""
        with self._lock:
            return self._in_flight

    def elapsed(self) -> float:
        return self._clock() - self._t0

    def _next_request_id(self) -> str:
        with self._lock:
            self._request_seq += 1
            return f"req-{self._request_seq:08d}"

    def _plan_cache_get(self, key: bytes) -> Response | None:
        with self._lock:
            response = self._plan_cache.get(key)
            if response is not None:
                self._plan_cache.move_to_end(key)
            return response

    def _plan_cache_put(self, key: bytes, response: Response) -> None:
        with self._lock:
            self._plan_cache[key] = response
            self._plan_cache.move_to_end(key)
            while len(self._plan_cache) > self._plan_cache_size:
                self._plan_cache.popitem(last=False)

    def _poll_alarms(self, t: float, force: bool = False) -> None:
        """Publish fresh SLO alarm transitions (throttled to ~1/s: the
        alarm walk is O(recorded buckets) and must stay off the hot path)."""
        with self._lock:
            if not force and t - self._last_alarm_poll < 1.0:
                return
            self._last_alarm_poll = t
        for event in self.slo.evaluate_alarms():
            with self._lock:
                self._alarm_events.append(event)
            self.access_log.log_alarm(event.to_doc())

    # -- endpoints -------------------------------------------------------------

    def _endpoint(self, method: str, path: str) -> str:
        """Stable low-cardinality label for metrics (no raw client paths)."""
        if path in ("/plan", "/metrics", "/healthz", "/readyz", "/status"):
            return path
        return "other"

    def handle(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> Response:
        """One request to one response; never raises (500 on surprises)."""
        header_map = {k.lower(): v for k, v in (headers or {}).items()}
        request_id = header_map.get("x-request-id") or self._next_request_id()
        endpoint = self._endpoint(method, path)
        start = self._clock()
        t = start - self._t0
        with self._lock:
            self._in_flight += 1
        self._in_flight_gauge.inc()
        try:
            with self.trace.span(
                "service_request",
                request_id=request_id,
                method=method,
                path=path,
            ) as span:
                try:
                    response = self._route(method, path, body, request_id)
                except Exception as exc:  # pragma: no cover - defensive
                    self.trace.emit(
                        "service_internal_error",
                        kind="warning",
                        request_id=request_id,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    response = _error_response(500, "internal server error", request_id)
                span["status"] = response.status
        finally:
            with self._lock:
                self._in_flight -= 1
            self._in_flight_gauge.dec()
        latency = self._clock() - start
        self.registry.counter(
            "service_requests_total",
            help="handled requests by endpoint and status",
            labels={"endpoint": endpoint, "status": str(response.status)},
        ).inc()
        self.registry.histogram(
            "service_request_seconds",
            help="request latency by endpoint",
            labels={"endpoint": endpoint},
            start=1e-4,
            factor=4.0,
            buckets=12,
        ).observe(latency)
        if endpoint == "/plan":
            self.slo.record(response.status < 500, latency, t)
            self._poll_alarms(t)
        self.access_log.log_request(
            request_id=request_id,
            method=method,
            path=path,
            endpoint=endpoint,
            status=response.status,
            latency_ms=latency * 1000.0,
            t=t,
            bytes_in=len(body),
            bytes_out=len(response.body),
        )
        return Response(
            status=response.status,
            body=response.body,
            content_type=response.content_type,
            headers=response.headers + (("X-Request-Id", request_id),),
        )

    def _route(self, method: str, path: str, body: bytes, request_id: str) -> Response:
        if path == "/plan":
            if method != "POST":
                return _error_response(405, "use POST /plan", request_id)
            return self._plan(body, request_id)
        if method != "GET":
            return _error_response(405, f"use GET {path}", request_id)
        if path == "/metrics":
            return self._metrics()
        if path == "/healthz":
            return _json_response(200, {"status": "ok"})
        if path == "/readyz":
            return self._readyz(request_id)
        if path == "/status":
            return self._status()
        return _error_response(404, f"no such endpoint {path!r}", request_id)

    def _plan(self, body: bytes, request_id: str) -> Response:
        key = hashlib.sha256(body).digest()
        cached = self._plan_cache_get(key)
        if cached is not None:
            self.registry.counter(
                "service_plan_cache_total",
                help="plan response-cache lookups",
                labels={"result": "hit"},
            ).inc()
            return cached
        self.registry.counter(
            "service_plan_cache_total",
            help="plan response-cache lookups",
            labels={"result": "miss"},
        ).inc()
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            return _error_response(400, f"request body is not valid JSON: {exc}", request_id)
        try:
            inputs, targets, planner = parse_deployment(doc)
            load_model = doc.get("load_model", "paper")
            report = build_report(inputs, planner, load_model)
            out = report_json(report, inputs, targets, load_model)
        except DeploymentError as exc:
            return _error_response(400, str(exc), request_id)
        response = _json_response(200, out)
        self._plan_cache_put(key, response)
        return response

    def _metrics(self) -> Response:
        self._refresh_gauges()
        self._poll_alarms(self.elapsed(), force=True)
        text = prometheus_text(self.registry)
        return Response(status=200, body=text.encode("utf-8"), content_type=PROMETHEUS_CONTENT_TYPE)

    def _readyz(self, request_id: str) -> Response:
        self._poll_alarms(self.elapsed(), force=True)
        if self.draining:
            return _error_response(503, "draining", request_id)
        if not self.slo.ready:
            return _error_response(503, "SLO error budget burning", request_id)
        return _json_response(200, {"status": "ready"})

    def _status(self) -> Response:
        self._refresh_gauges()
        self._poll_alarms(self.elapsed(), force=True)
        with self._lock:
            # Exclude this /status request from its own snapshot.
            in_flight = max(0, self._in_flight - 1)
            plan_cache_entries = len(self._plan_cache)
            alarm_events = list(self._alarm_events)
        return _json_response(200, {
            "status": "draining" if self.draining else "serving",
            "uptime_s": round(self.elapsed(), 3),
            "in_flight": in_flight,
            "slo": self.slo.snapshot(),
            "plan_cache": {
                "entries": plan_cache_entries,
                "maxsize": self._plan_cache_size,
            },
            "erlang_cache": shared_cache().stats(),
            "alarms": self.slo.alarm_manager.summarize(alarm_events),
        })

    def _refresh_gauges(self) -> None:
        """Fold point-in-time state into the registry before a scrape."""
        self._uptime_gauge.set(self.elapsed())
        self.registry.gauge(
            "slo_burn_rate", help="error-budget burn rate over the SLO window"
        ).set(self.slo.burn_rate)
        with self._lock:
            baseline = self._cache_baseline
            stats = shared_cache().stats()
            self._cache_baseline = stats
        # Deltas accumulate across scrapes: total = now - construction time.
        record_cache_metrics(self.registry, baseline)

    # -- lifecycle -------------------------------------------------------------

    def finalize(self) -> list:
        """Flush operational state at shutdown; returns open alarms.

        Publishes any pending SLO alarm transitions, then the
        ``open_at_exit`` records for alarms that never cleared (both into
        the trace/registry *and* the access log), and flushes the log.
        """
        t = self.elapsed()
        self._poll_alarms(t, force=True)
        open_events = self.slo.finalize(t)
        for event in open_events:
            with self._lock:
                self._alarm_events.append(event)
            self.access_log.log_alarm(event.to_doc())
        self.access_log.flush()
        return open_events
