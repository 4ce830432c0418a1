"""Which program functions the traced run wraps, and the per-layer metrics.

Layers follow the ROADMAP's L0-L6 stack.  Every wrapper sits at a public
entry point of its layer; the program itself is not modified.
"""

from __future__ import annotations

from typing import Sequence

from .spans import Recorder, Span, self_times
from .stats import percentile, tail

#: Span name -> layer key used by :func:`summarize`.
LAYER_OF = {
    "vectorized.min_servers": "vectorized",
    "vectorized.min_servers_continuous": "vectorized",
    "vectorized.erlang_b": "vectorized",
    "erlang.min_servers": "vectorized",
    "erlang.min_servers_continuous": "vectorized",
    "erlang.erlang_b": "vectorized",
    "cache.min_servers": "erlang_cache",
    "cache.min_servers_continuous": "erlang_cache",
    "cache.erlang_b": "erlang_cache",
    "cache.min_servers_grid": "erlang_cache",
    "model.solve": "model",
    "dynamic.servers_needed": "dynamic",
    "dynamic.plan": "dynamic",
    "multiqos.solve_with_targets": "multiqos",
    "des.run": "des",
    "control.observe": "control",
    "fleet.scale_up": "fleet",
    "fleet.scale_down": "fleet",
    "placement.best_fit_decreasing": "bfd",
    "app.handle": "app",
}


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _steps(_args, _kwargs, result) -> tuple[int, int, int]:
    """(lanes, lane_steps, lockstep_steps) of one min_servers call."""
    if hasattr(result, "size"):
        flat = result.reshape(-1)
        if flat.size == 0:
            return 0, 0, 0
        return int(flat.size), int(flat.sum()), int(flat.max())
    return 1, int(result), int(result)


def _lanes(args, kwargs, _result) -> tuple[int, int, int]:
    return max(_size(a) for a in args) if args else 1, 0, 0


def _handle_rid(args, kwargs):
    headers = kwargs.get("headers", args[4] if len(args) > 4 else None) or {}
    for key, value in headers.items():
        if key.lower() == "x-request-id":
            return value
    return None


def _handle_path(args, kwargs, _result):
    return args[2] if len(args) > 2 else kwargs.get("path")


def install(rec: Recorder) -> None:
    """Wrap every layer's entry points (imports the program)."""
    import http.server

    from repro.control import controller, fleet
    from repro.core import dynamic, model, multiqos
    from repro.parallel import cache
    from repro.queueing import erlang, vectorized
    from repro.simulation import engine, loss_network
    from repro.virtualization import placement

    rec.span(vectorized, "min_servers", "vectorized.min_servers", attrs=_steps)
    rec.span(vectorized, "min_servers_continuous", "vectorized.min_servers_continuous", attrs=_lanes)
    rec.span(vectorized, "erlang_b", "vectorized.erlang_b", attrs=_lanes)
    rec.span(erlang, "min_servers", "erlang.min_servers")
    rec.span(erlang, "min_servers_continuous", "erlang.min_servers_continuous")
    rec.span(erlang, "erlang_b", "erlang.erlang_b")
    for name in ("min_servers", "min_servers_continuous", "erlang_b", "min_servers_grid"):
        rec.span(cache.ErlangCache, name, f"cache.{name}")
    rec.span(model.UtilityAnalyticModel, "solve", "model.solve")
    rec.span(dynamic.DynamicCapacityPlanner, "servers_needed", "dynamic.servers_needed")
    rec.span(dynamic.DynamicCapacityPlanner, "plan", "dynamic.plan")
    rec.span(multiqos, "solve_with_targets", "multiqos.solve_with_targets")
    rec.span(loss_network.LossNetwork, "run", "des.run",
             attrs=lambda a, k, r: r.total_arrived)
    rec.count(engine.Simulator, "schedule_at", "des.events")
    rec.span(controller.ConsolidationController, "observe", "control.observe")
    rec.span(fleet.FleetState, "scale_up", "fleet.scale_up")
    rec.span(fleet.FleetState, "scale_down", "fleet.scale_down",
             attrs=lambda a, k, r: len(r.migrations))
    rec.span(placement, "best_fit_decreasing", "placement.best_fit_decreasing")
    try:
        from repro.service import app
    except ImportError:
        return
    rec.span(app.PlannerApp, "handle", "app.handle", request_id=_handle_rid, attrs=_handle_path)
    rec.count(http.server.BaseHTTPRequestHandler, "handle", "http.connections")


def _median(values: Sequence[float]) -> float:
    return percentile(values, 50.0) if values else 0.0


def _tail(values: Sequence[float]) -> float:
    """The reportable tail percentile, else the maximum (0 when empty)."""
    _q, value = tail(values)
    return value if value is not None else max(values, default=0.0)


def summarize(spans: Sequence[Span], counters: dict) -> dict[str, float]:
    """Per-layer counts and times from one traced window's spans."""
    selfs = self_times(spans)
    by_layer: dict[str, list[Span]] = {}
    for s in spans:
        by_layer.setdefault(LAYER_OF.get(s[2], "other"), []).append(s)

    def self_s(*layers: str) -> float:
        return sum(selfs[s[0]] for layer in layers for s in by_layer.get(layer, ()))

    def dur(s: Span) -> float:
        return s[4] - s[3]

    out: dict[str, float] = {}
    vec = [s for s in by_layer.get("vectorized", ()) if s[2].startswith("vectorized.")]
    steps = [s[6] for s in vec if s[6] is not None]
    out["vectorized.calls"] = len(vec)
    out["vectorized.lanes"] = sum(x[0] for x in steps)
    out["vectorized.lane_steps"] = sum(x[1] for x in steps)
    out["vectorized.lockstep_steps"] = sum(x[2] for x in steps)
    out["vectorized.self_s"] = self_s("vectorized")
    out["erlang_cache.self_s"] = self_s("erlang_cache")
    solves = [dur(s) for s in by_layer.get("model", ())]
    out["model.solves"] = len(solves)
    out["model.solve_p50_us"] = 1e6 * _median(solves)
    out["model.self_s"] = self_s("model")
    dyn = by_layer.get("dynamic", ())
    out["dynamic.servers_needed_calls"] = sum(1 for s in dyn if s[2] == "dynamic.servers_needed")
    out["dynamic.self_s"] = self_s("dynamic")
    out["multiqos.calls"] = len(by_layer.get("multiqos", ()))
    out["multiqos.self_s"] = self_s("multiqos")
    des = by_layer.get("des", ())
    arrivals = sum(s[6] or 0 for s in des)
    out["des.arrivals"] = arrivals
    out["des.events"] = counters.get("des.events", 0)
    out["des.events_per_arrival"] = out["des.events"] / arrivals if arrivals else 0.0
    out["des.run_s"] = sum(dur(s) for s in des)
    out["control.ticks"] = len(by_layer.get("control", ()))
    out["control.tick_self_s"] = self_s("control")
    out["control.fleet_s"] = sum(dur(s) for s in by_layer.get("fleet", ()))
    out["control.bfd_calls"] = len(by_layer.get("bfd", ()))
    out["control.bfd_s"] = sum(dur(s) for s in by_layer.get("bfd", ()))
    out["control.migrations"] = sum(
        s[6] or 0 for s in by_layer.get("fleet", ()) if s[2] == "fleet.scale_down"
    )
    handles = [dur(s) for s in by_layer.get("app", ()) if s[6] == "/plan"]
    out["app.requests"] = len(handles)
    out["app.handle_p50_us"] = 1e6 * _median(handles)
    out["app.handle_p99_us"] = 1e6 * _tail(handles)
    out["app.self_s"] = self_s("app")
    return out


def handle_durations(spans: Sequence[Span]) -> dict[str, float]:
    """Request id -> server-side ``PlannerApp.handle`` seconds."""
    return {s[5]: s[4] - s[3] for s in spans if s[2] == "app.handle" and s[5]}
