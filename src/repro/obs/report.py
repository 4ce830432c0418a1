"""Self-contained HTML run report: one page from the run to the fleet decision.

``repro-report`` renders every observability artifact of a run — the run
manifest and its metric snapshot, a JSONL trace, telemetry timelines, a
service access log, ``BENCH_*.json`` trajectory points, ``FIDELITY_*.json``
scoreboards, experiment summaries — together with the fleet audit priced
from them (:mod:`repro.obs.fleet`) into **one** ``report.html``:
dependency-free, no JavaScript, no external assets, figures as inline SVG
sparklines.  It answers, on open: which fleet should run (dedicated or
consolidated, in servers, kWh, $ and CO2), did this run reproduce the
paper, how fast was it, what did it execute, and on which machine?

Entry points:

- :func:`render_report` — pure renderer over already-loaded documents;
- :func:`write_ledger_report` — a run ledger (:mod:`repro.obs.ledger`)
  plus any per-run documents -> ``report.html`` and its machine-readable
  ``FLEET_*.json`` companion;
- :func:`main` — the ``repro-report`` CLI, which discovers on-disk
  artifacts through the run ledger without re-running anything;
- ``repro-experiments --report-out FILE`` builds the same report from the
  live run (see :mod:`repro.experiments.runner`).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

from .bench import percentile
from .compare import compare_artifacts, load_artifact
from .fidelity import (
    build_fidelity_artifact,
    evaluate_summaries,
    load_fidelity_artifact,
)
from .fleet import (
    AuditAssumptions,
    bench_trend,
    build_fleet_artifact,
    build_fleet_summary,
    per_experiment_fidelity,
    write_fleet_artifact,
)
from .htmlutil import badge as _badge
from .htmlutil import esc as _esc
from .htmlutil import fmt_number as _fmt_number
from .htmlutil import fmt_value as _fmt
from .htmlutil import kv_table as _kv_table
from .htmlutil import mono as _mono
from .htmlutil import page as _page
from .htmlutil import sparkline as _sparkline
from .htmlutil import table as _table
from .htmlutil import timeline_chart as _timeline_chart
from .ledger import RunLedger, build_ledger
from .timeseries import TIMESERIES_SCHEMA, load_timeseries_jsonl

__all__ = [
    "BENCH_BASELINE",
    "add_assumption_arguments",
    "render_report",
    "write_ledger_report",
    "write_report",
    "main",
]

#: Committed bench baseline the newest BENCH artifact is compared against.
BENCH_BASELINE = Path("benchmarks/baselines/BENCH_baseline.json")

#: Human label and CLI metavar of each audit assumption.
_ASSUMPTIONS = {
    "price_usd_per_kwh": ("electricity price ($/kWh)", "USD"),
    "carbon_g_per_kwh": ("grid carbon intensity (gCO2/kWh)", "G"),
    "server_capex_usd": ("server capex, amortized ($)", "USD"),
    "server_lifetime_years": ("server lifetime (years)", "Y"),
    "horizon_hours": ("audit horizon (hours)", "H"),
}


def add_assumption_arguments(
    parser: argparse.ArgumentParser, names: Sequence[str] = tuple(_ASSUMPTIONS)
) -> None:
    """Add one ``--<name>`` float flag per audit assumption in ``names``.

    Parsed values rebuild the assumptions with
    ``AuditAssumptions.from_mapping(vars(args))``.
    """
    for name in names:
        label, metavar = _ASSUMPTIONS[name]
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=float,
            default=getattr(AuditAssumptions, name),
            metavar=metavar,
            help=f"{label} assumed by the fleet audit (default: %(default)s)",
        )


# -- sections ------------------------------------------------------------------


def _section_decision(fleet: Mapping[str, Any] | None) -> str:
    if not fleet:
        return ""
    out = ["<h2>Executive summary</h2>"]
    decision = fleet.get("decision") or {}
    recommendation = decision.get("recommendation")
    headline = decision.get("headline", "")
    if recommendation:
        out.append(
            f'<p class="headline">{_badge(recommendation)} {_esc(headline)}</p>'
        )
    else:
        out.append(f'<div class="warnbox">⚠ {_esc(headline or "no decision")}</div>')
    scenarios = fleet.get("scenarios") or {}
    rows = []
    for name in ("dedicated", "consolidated", "projected"):
        s = scenarios.get(name)
        if not s:
            continue
        rows.append(
            (
                _badge(name) if name != "projected" else _esc(name),
                _mono(s.get("servers", "–")),
                _mono(_fmt_number(s.get("mean_power_w"), " W")),
                _mono(_fmt_number(s.get("energy_kwh"), " kWh")),
                _mono(_fmt_number(s.get("energy_cost_usd"), digits=2, prefix="$")),
                _mono(_fmt_number(s.get("capex_usd"), digits=2, prefix="$")),
                _mono(_fmt_number(s.get("total_cost_usd"), digits=2, prefix="$")),
                _mono(_fmt_number(s.get("carbon_kg"), " kg")),
                f'<span class="muted">{_esc(s.get("source", ""))}</span>',
            )
        )
    if rows:
        out.append(
            _table(
                ("fleet", "servers", "mean power", "energy", "energy $",
                 "capex $", "total $", "CO2", "source"),
                rows,
            )
        )
    deltas = fleet.get("deltas") or {}
    if deltas:
        out.append("<h3>Savings (positive = alternative is leaner)</h3>")
        rows = []
        for label, d in deltas.items():
            frac = d.get("cost_saved_fraction")
            rows.append(
                (
                    _mono(label.replace("_", " ")),
                    _mono(d.get("servers_saved", "–")),
                    _mono(_fmt_number(d.get("power_saved_w"), " W")),
                    _mono(_fmt_number(d.get("energy_saved_kwh"), " kWh")),
                    _mono(_fmt_number(d.get("cost_saved_usd"), digits=2, prefix="$")),
                    _mono(_fmt_number(d.get("carbon_saved_kg"), " kg")),
                    _mono(
                        f"{100.0 * frac:+.1f}%" if isinstance(frac, float) else "–"
                    ),
                )
            )
        out.append(
            _table(
                ("comparison", "servers", "power", "energy", "cost",
                 "carbon", "cost %"),
                rows,
            )
        )
    for note in fleet.get("notes") or []:
        out.append(f'<div class="warnbox">⚠ {_esc(note)}</div>')
    return "".join(out)


def _section_assumptions(fleet: Mapping[str, Any] | None) -> str:
    if not fleet:
        return ""
    out = ["<h2>Audit assumptions</h2>"]
    assumptions = fleet.get("assumptions") or {}
    if not assumptions:
        out.append('<p class="muted">No assumptions recorded.</p>')
        return "".join(out)
    out.append(
        '<p class="muted">Every dollar and kilogram above derives from '
        "these recorded inputs; rebuild with different flags to restate "
        "the audit.</p>"
    )
    out.append(
        _kv_table(
            {
                _ASSUMPTIONS[key][0] if key in _ASSUMPTIONS else key: value
                for key, value in assumptions.items()
            }
        )
    )
    return "".join(out)


def _section_fidelity(fidelity_doc: Mapping[str, Any] | None) -> str:
    """Per-experiment verdict grid, then one row per graded metric."""
    out = ["<h2>Fidelity scoreboard</h2>"]
    if not fidelity_doc:
        out.append('<p class="muted">No fidelity data available.</p>')
        return "".join(out)
    counts = fidelity_doc.get("counts", {})
    grid = per_experiment_fidelity(fidelity_doc)
    out.append(
        f"<p>Overall: {_badge(fidelity_doc['overall'])} "
        f'<span class="muted">({counts.get("match", "?")} match, '
        f'{counts.get("drift", "?")} drift, {counts.get("fail", "?")} fail '
        f"across {len(grid)} experiment(s) — paper-expected values vs this "
        f"run, within declared tolerances)</span></p>"
    )
    out.append(
        _table(
            ("experiment", "verdict", "match", "drift", "fail"),
            [
                (
                    _mono(name),
                    _badge(cell["overall"]),
                    _mono(cell["match"]),
                    _mono(cell["drift"]),
                    _mono(cell["fail"]),
                )
                for name, cell in grid.items()
            ],
        )
    )
    rows = [
        (
            _esc(v["experiment"]),
            _esc(v["metric"]),
            _mono(_fmt(v["expected"])),
            _mono(_fmt(v.get("actual"))),
            _esc(v.get("op", "approx")),
            _mono(_fmt(v.get("tolerance"))),
            _badge(v["verdict"]),
            f'<span class="muted">{_esc(v.get("source", ""))}</span>',
        )
        for v in fidelity_doc.get("verdicts", [])
    ]
    out.append(
        _table(
            ("experiment", "metric", "expected", "actual", "op",
             "tolerance", "verdict", "source"),
            rows,
        )
    )
    return "".join(out)


def _section_manifest(manifest: Mapping[str, Any] | None) -> str:
    out = ["<h2>Run manifest</h2>"]
    if not manifest:
        out.append('<p class="muted">No run manifest available.</p>')
        return "".join(out)
    head = {
        "schema": manifest.get("schema"),
        "model_version": manifest.get("model_version"),
        "seed": manifest.get("seed"),
        "wall_time_s": manifest.get("wall_time_s"),
        "inputs_hash": manifest.get("inputs_hash"),
    }
    out.append(_kv_table(head))
    inputs = manifest.get("inputs")
    if inputs:
        out.append("<h3>Inputs</h3>")
        out.append(_kv_table(inputs))
    env = manifest.get("environment")
    if env:
        out.append("<h3>Environment fingerprint</h3>")
        out.append(_kv_table(env))
    return "".join(out)


def _metric_value_cell(kind: str, value: Any) -> str:
    if isinstance(value, Mapping):  # histogram / timer snapshot
        text = ", ".join(f"{k}={_fmt(v)}" for k, v in value.items())
        return _mono(text)
    return _mono(_fmt(value))


def _section_metrics(metrics: Mapping[str, Any] | None) -> str:
    out = ["<h2>Metrics</h2>"]
    if not metrics:
        out.append('<p class="muted">No metric snapshot available.</p>')
        return "".join(out)
    rows = []
    for name in sorted(metrics):
        family = metrics[name]
        kind = family.get("kind", "?")
        for series in family.get("series", []):
            labels = series.get("labels") or {}
            label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            rows.append(
                (
                    _mono(name),
                    _esc(kind),
                    _mono(label_text),
                    _metric_value_cell(kind, series.get("value")),
                )
            )
    out.append(_table(("family", "kind", "labels", "value"), rows))
    return "".join(out)


def _span_tree(events: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Nest ``span_begin``/``span_end`` event pairs by emission order."""
    roots: list[dict[str, Any]] = []
    stack: list[dict[str, Any]] = []
    for event in events:
        kind = event.get("kind")
        if kind == "span_begin":
            node = {
                "name": event.get("name", "?"),
                "fields": {
                    k: v
                    for k, v in event.items()
                    if k not in ("ts", "kind", "name", "span")
                },
                "duration_s": None,
                "children": [],
            }
            (stack[-1]["children"] if stack else roots).append(node)
            stack.append(node)
        elif kind == "span_end" and stack:
            node = stack.pop()
            node["duration_s"] = event.get("duration_s")
            node["fields"].update(
                {
                    k: v
                    for k, v in event.items()
                    if k not in ("ts", "kind", "name", "span", "duration_s")
                }
            )
    return roots


def _render_tree(nodes: Sequence[Mapping[str, Any]]) -> str:
    items = []
    for node in nodes:
        duration = node.get("duration_s")
        dur = f" — {float(duration) * 1e3:.1f} ms" if duration is not None else ""
        fields = node.get("fields") or {}
        field_text = ", ".join(f"{k}={_fmt(v)}" for k, v in fields.items())
        label = (
            _mono(node["name"])
            + f'<span class="muted">{_esc(dur)}'
            + (f" ({_esc(field_text)})" if field_text else "")
            + "</span>"
        )
        children = node.get("children") or []
        items.append(
            "<li>" + label + (_render_tree(children) if children else "") + "</li>"
        )
    return '<ul class="tree">' + "".join(items) + "</ul>"


def _section_trace(
    trace_events: Sequence[Mapping[str, Any]] | None,
    trace_stats: Mapping[str, Any] | None,
) -> str:
    out = ["<h2>Trace summary</h2>"]
    if trace_stats:
        dropped = trace_stats.get("dropped", 0)
        out.append(_kv_table(trace_stats))
        if dropped:
            out.append(
                f'<div class="warnbox">⚠ the trace ring dropped {dropped} '
                f"event(s): the oldest events are missing from this "
                f"summary (capacity "
                f"{_esc(trace_stats.get('capacity', '?'))}).</div>"
            )
    if not trace_events:
        if not trace_stats:
            out.append('<p class="muted">No trace available.</p>')
        return "".join(out)
    by_kind: dict[str, int] = {}
    for event in trace_events:
        kind = str(event.get("kind", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
    out.append(
        "<p>"
        + ", ".join(f"{n} × {_esc(k)}" for k, n in sorted(by_kind.items()))
        + "</p>"
    )
    warnings = [e for e in trace_events if e.get("kind") == "warning"]
    if warnings:
        out.append(
            f'<div class="warnbox">⚠ {len(warnings)} warning event(s): '
            + "; ".join(
                _esc(
                    w.get("name", "?")
                    + " "
                    + json.dumps(
                        {k: v for k, v in w.items() if k not in ("ts", "kind", "name")},
                        default=str,
                    )
                )
                for w in warnings[:10]
            )
            + "</div>"
        )
    roots = _span_tree(trace_events)
    if roots:
        out.append("<h3>Span tree</h3>")
        out.append(_render_tree(roots))
    return "".join(out)


def _section_bench(
    bench_docs: Sequence[Mapping[str, Any]],
    bench_comparison: Mapping[str, Any] | None,
) -> str:
    out = ["<h2>Performance trajectory</h2>"]
    if not bench_docs:
        out.append(
            '<p class="muted">No BENCH_*.json artifacts found — run '
            "<span class=\"mono\">repro-bench run</span> to record one.</p>"
        )
        return "".join(out)
    docs = sorted(bench_docs, key=lambda d: str(d.get("created_utc", "")))
    latest = docs[-1]
    trend = bench_trend(docs)
    out.append(
        f'<p class="muted">{len(docs)} artifact(s) since '
        f"{_esc(docs[0].get('created_utc'))}; latest "
        f"{_esc(latest.get('created_utc'))} @ {_esc(latest.get('git_sha'))}.</p>"
    )
    rows = []
    for entry in latest.get("benchmarks", []):
        name = entry["name"]
        if not entry.get("ok"):
            rows.append(
                (_mono(name), _badge("error"), "", _esc(entry.get("error", "")), "")
            )
            continue
        median = (entry.get("wall_s") or {}).get("median")
        series = trend["median_wall_s"].get(name, [])
        rel = (
            f"{100.0 * (series[-1] / series[0] - 1.0):+.1f}%"
            if len(series) >= 2 and series[0]
            else "–"
        )
        rows.append(
            (
                _mono(name),
                _mono(_fmt_number(median and median * 1e3, " ms", 2)),
                _mono(rel),
                _esc(entry.get("group", "")),
                _sparkline(series),
            )
        )
    out.append(
        _table(("benchmark", "wall median", "vs first", "group", "trend"), rows)
    )
    if bench_comparison:
        out.append("<h3>Comparison vs baseline</h3>")
        out.append(
            f"<p>Verdict: {_badge(bench_comparison.get('verdict', '?'))} "
            f'<span class="muted">(±{100.0 * float(bench_comparison.get("threshold", 0)):.0f}% '
            f"band on median {_esc(bench_comparison.get('metric', '?'))})</span></p>"
        )
        cmp_rows = []
        for delta in bench_comparison.get("deltas", []):
            rel = delta.get("rel_change")
            cmp_rows.append(
                (
                    _mono(delta["name"]),
                    _esc(_fmt(delta.get("base_median_s"))),
                    _esc(_fmt(delta.get("new_median_s"))),
                    _esc(f"{100.0 * rel:+.1f}%" if isinstance(rel, float) else "–"),
                    _badge(delta.get("verdict", "?")),
                )
            )
        out.append(
            _table(("benchmark", "base median s", "new median s", "delta", "verdict"),
                   cmp_rows)
        )
    return "".join(out)


#: Charts rendered before the timeline section truncates (keeps reports
#: bounded when many pools record telemetry).
_MAX_TIMELINE_CHARTS = 24


def _alarm_matches_series(alarm: Mapping[str, Any], series: Mapping[str, Any]) -> bool:
    if alarm.get("series") != series.get("series"):
        return False
    series_labels = series.get("labels") or {}
    return all(
        series_labels.get(k) == v for k, v in (alarm.get("labels") or {}).items()
    )


def _section_timeline(
    timeseries_docs: Sequence[Mapping[str, Any]] | None,
) -> str:
    """Virtual-time timeline charts with alarm markers.

    Unlike the other sections this one renders *nothing at all* when no
    telemetry exists — the timeline is an opt-in artifact, so its absence
    is the normal case, not a gap worth a placeholder.
    """
    if not timeseries_docs:
        return ""
    series_docs = [d for d in timeseries_docs if d.get("kind") == "series"]
    alarm_docs = [d for d in timeseries_docs if d.get("kind") == "alarm"]
    if not series_docs:
        return ""
    out = ["<h2>Telemetry timeline</h2>"]
    out.append(
        f'<p class="muted">{len(series_docs)} series, {len(alarm_docs)} '
        f"alarm transition(s) over virtual time (schema "
        f"{_esc(TIMESERIES_SCHEMA)}); red lines mark alarm fires, dashed "
        f"green their clears.</p>"
    )
    shown = 0
    for doc in series_docs:
        if shown >= _MAX_TIMELINE_CHARTS:
            out.append(
                f'<p class="muted">… {len(series_docs) - shown} more series '
                f"not charted (cap {_MAX_TIMELINE_CHARTS}).</p>"
            )
            break
        labels = doc.get("labels") or {}
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        markers = [a for a in alarm_docs if _alarm_matches_series(a, doc)]
        out.append(
            f"<h3><span class=\"mono\">{_esc(doc['series'])}</span> "
            f'<span class="muted">{_esc(label_text)} ({_esc(doc["agg"])}, '
            f'bucket {_esc(_fmt(doc["bucket_width"]))})</span></h3>'
        )
        out.append(
            _timeline_chart(
                float(doc.get("t0", 0.0)),
                float(doc["bucket_width"]),
                doc["values"],
                markers=markers,
            )
        )
        shown += 1
    if alarm_docs:
        out.append("<h3>Alarm transitions</h3>")
        rows = [
            (
                _mono(a["rule"]),
                f'<span class="badge badge-'
                f'{"fail" if a["state"] == "fire" else "match"}">'
                f'{_esc(a["state"])}</span>',
                _mono(_fmt(a["t"])),
                _mono(_fmt(a["value"])),
                _mono(_fmt(a["threshold"])),
                _mono(a["series"]),
            )
            for a in alarm_docs
        ]
        out.append(
            _table(
                ("rule", "state", "virtual time", "window value",
                 "threshold", "series"),
                rows,
            )
        )
    return "".join(out)


def _section_service(
    access_docs: tuple[Sequence[Mapping[str, Any]], Sequence[Mapping[str, Any]]] | None,
) -> str:
    """Service latency timeline + per-endpoint table from an access log.

    ``access_docs`` is the ``(requests, alarms)`` pair
    :func:`repro.service.accesslog.load_access_log` returns.  Like the
    telemetry timeline, this section renders nothing when no access log
    exists — serving is opt-in.
    """
    if not access_docs:
        return ""
    requests, alarms = access_docs
    if not requests:
        return ""
    out = ["<h2>Service</h2>"]
    latencies = sorted(float(r["latency_ms"]) for r in requests)
    t_max = max(float(r["t"]) for r in requests)
    errors = sum(1 for r in requests if int(r["status"]) >= 500)
    duration = max(t_max, 1e-9)
    summary = {
        "requests": len(requests),
        "duration_s": round(duration, 3),
        "throughput_rps": round(len(requests) / duration, 1),
        "p50_ms": round(percentile(latencies, 50.0), 3),
        "p95_ms": round(percentile(latencies, 95.0), 3),
        "p99_ms": round(percentile(latencies, 99.0), 3),
        "server_errors": errors,
        "error_rate": round(errors / len(requests), 6),
        "alarm_transitions": len(alarms),
    }
    out.append(_kv_table(summary))

    # Latency timeline: mean latency per 1-second bucket of service time,
    # with SLO alarm markers overlaid (red fire / dashed green clear).
    width = 1.0
    buckets = int(t_max / width) + 1
    sums = [0.0] * buckets
    counts = [0] * buckets
    for r in requests:
        idx = min(int(float(r["t"]) / width), buckets - 1)
        sums[idx] += float(r["latency_ms"])
        counts[idx] += 1
    values = [s / c if c else 0.0 for s, c in zip(sums, counts)]
    out.append(
        '<h3><span class="mono">request latency</span> '
        '<span class="muted">mean ms per second of service time</span></h3>'
    )
    out.append(_timeline_chart(0.0, width, values, markers=alarms))

    by_endpoint: dict[str, list[Mapping[str, Any]]] = {}
    for r in requests:
        by_endpoint.setdefault(str(r["endpoint"]), []).append(r)
    rows = []
    for endpoint in sorted(by_endpoint):
        docs = by_endpoint[endpoint]
        ordered = sorted(float(r["latency_ms"]) for r in docs)
        bad = sum(1 for r in docs if int(r["status"]) >= 400)
        rows.append(
            (
                _mono(endpoint),
                _mono(len(docs)),
                _mono(bad),
                _mono(f"{percentile(ordered, 50.0):.3f}"),
                _mono(f"{percentile(ordered, 99.0):.3f}"),
            )
        )
    out.append(
        _table(("endpoint", "requests", "4xx/5xx", "p50 ms", "p99 ms"), rows)
    )
    if alarms:
        rows = [
            (
                _mono(a.get("rule", "?")),
                f'<span class="badge badge-'
                f'{"fail" if a.get("state") in ("fire", "open_at_exit") else "match"}">'
                f'{_esc(a.get("state", "?"))}</span>',
                _mono(_fmt(a.get("t"))),
                _mono(_fmt(a.get("value"))),
                _mono(_fmt(a.get("threshold"))),
            )
            for a in alarms
        ]
        out.append("<h3>SLO alarm transitions</h3>")
        out.append(
            _table(("rule", "state", "service time", "burn rate", "threshold"), rows)
        )
    return "".join(out)


def _section_results(results: Sequence[Mapping[str, Any]]) -> str:
    out = ["<h2>Experiment results</h2>"]
    if not results:
        out.append('<p class="muted">No experiment summaries available.</p>')
        return "".join(out)
    for result in results:
        name = result.get("experiment", "?")
        title = result.get("title", "")
        out.append(
            f"<details open><summary><span class=\"mono\">{_esc(name)}</span> "
            f"— {_esc(title)}</summary>"
        )
        out.append(_kv_table(result.get("summary") or {}))
        out.append("</details>")
    return "".join(out)


def _section_ledger(fleet: Mapping[str, Any] | None) -> str:
    if not fleet:
        return ""
    out = ["<h2>Run ledger</h2>"]
    ledger = fleet.get("ledger") or {}
    counts = ledger.get("counts") or {}
    head = {
        "directories": ", ".join(ledger.get("directories", [])),
        "indexed runs": len(ledger.get("runs", [])),
        **{f"{k} artifacts": v for k, v in counts.items()},
        "seeds": ", ".join(str(s) for s in fleet.get("seeds", [])) or "–",
        "environments": fleet.get("environments", 0),
    }
    out.append(_kv_table(head))
    excluded = fleet.get("excluded") or []
    if excluded:
        out.append(
            f'<div class="warnbox">⚠ {len(excluded)} result(s) excluded '
            "from the aggregation:</div>"
        )
        out.append(
            _table(
                ("experiment", "path", "reason"),
                [
                    (
                        _mono(e.get("experiment", "?")),
                        _mono(e.get("path", "?")),
                        _esc(e.get("reason", "")),
                    )
                    for e in excluded
                ],
            )
        )
    skipped = ledger.get("skipped") or []
    if skipped:
        out.append(
            f"<details><summary>{len(skipped)} file(s) skipped during "
            "discovery</summary>"
        )
        out.append(
            _table(
                ("path", "reason"),
                [
                    (_mono(s.get("path", "?")), _esc(s.get("reason", "")))
                    for s in skipped
                ],
            )
        )
        out.append("</details>")
    return "".join(out)


# -- assembly ------------------------------------------------------------------


def render_report(
    *,
    title: str = "repro run report",
    fleet: Mapping[str, Any] | None = None,
    manifest: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
    trace_events: Sequence[Mapping[str, Any]] | None = None,
    trace_stats: Mapping[str, Any] | None = None,
    bench_docs: Sequence[Mapping[str, Any]] = (),
    bench_comparison: Mapping[str, Any] | None = None,
    fidelity_doc: Mapping[str, Any] | None = None,
    timeseries_docs: Sequence[Mapping[str, Any]] | None = None,
    access_docs: tuple[Sequence[Mapping[str, Any]], Sequence[Mapping[str, Any]]]
    | None = None,
    results: Sequence[Mapping[str, Any]] = (),
    generated_utc: str | None = None,
) -> str:
    """Render one self-contained HTML document over the given artifacts.

    Every argument is optional; absent sections render a placeholder so the
    report's structure is stable regardless of which artifacts exist.
    ``metrics`` defaults to the manifest's snapshot, ``trace_stats`` to the
    manifest's trace block.  Exceptions render nothing when their input is
    absent: the fleet sections (executive summary, audit assumptions, run
    ledger) without a ``fleet`` document — a ``repro.fleet/v1`` artifact —
    and the telemetry timeline and service sections without their
    documents, which are opt-in recordings.
    """
    if metrics is None and manifest:
        metrics = manifest.get("metrics")
    if trace_stats is None and manifest:
        trace_stats = manifest.get("trace")
    generated = generated_utc or datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    env = (manifest or {}).get("environment") or {}
    subtitle_bits = [f"generated {generated}"]
    git_sha = (
        env.get("git_sha")
        or (fidelity_doc or {}).get("git_sha")
        or (fleet or {}).get("git_sha")
    )
    if git_sha:
        subtitle_bits.append(f"commit {git_sha}")
    if fleet and fleet.get("inputs_hash"):
        subtitle_bits.append(f"runs hash {str(fleet['inputs_hash'])[:12]}")
    body = "".join(
        (
            f"<h1>{_esc(title)}</h1>",
            f'<p class="muted">{_esc(" · ".join(subtitle_bits))}</p>',
            _section_decision(fleet),
            _section_assumptions(fleet),
            _section_fidelity(fidelity_doc),
            _section_manifest(manifest),
            _section_metrics(metrics),
            _section_trace(trace_events, trace_stats),
            _section_timeline(timeseries_docs),
            _section_service(access_docs),
            _section_bench(bench_docs, bench_comparison),
            _section_results(results),
            _section_ledger(fleet),
        )
    )
    return _page(title, body)


def write_report(text: str, path: str | Path) -> Path:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _ledger_fidelity(ledger: RunLedger) -> dict[str, Any] | None:
    """Newest FIDELITY artifact in the ledger, else a grading of its results.

    The grading covers every result summary the ledger holds against the
    declared expectations; ``None`` when nothing in the ledger is graded.
    """
    docs = ledger.fidelity_docs()
    if docs:
        return docs[-1]
    if not ledger.results:
        return None
    # Importing the experiment registry pulls in every declaration.
    from ..experiments import runner as _runner  # noqa: F401

    scoreboard = evaluate_summaries(ledger.summaries())
    return build_fidelity_artifact(scoreboard) if scoreboard.verdicts else None


def write_ledger_report(
    ledger: RunLedger,
    out: str | Path,
    *,
    assumptions: AuditAssumptions | None = None,
    fidelity_doc: Mapping[str, Any] | None = None,
    baseline: str | Path = BENCH_BASELINE,
    **sections: Any,
) -> tuple[Path, Path, dict[str, Any]]:
    """Render ``ledger`` into ``out`` plus ``FLEET_*.json`` beside it.

    The ledger supplies the BENCH trend (compared against ``baseline``
    when that file exists), the fleet audit under ``assumptions``, and —
    unless ``fidelity_doc`` is given — the fidelity scoreboard.
    ``sections`` are the remaining :func:`render_report` keywords (title,
    manifest, metrics, trace, timeseries, access log, results).  Returns
    ``(report path, fleet artifact path, fleet artifact)``.
    """
    if fidelity_doc is None:
        fidelity_doc = _ledger_fidelity(ledger)
    bench_docs = ledger.bench_docs()
    bench_comparison = None
    if bench_docs and Path(baseline).is_file():
        try:
            bench_comparison = compare_artifacts(
                load_artifact(baseline), bench_docs[-1]
            ).to_doc()
        except ValueError as exc:
            print(f"warning: bench comparison skipped: {exc}", file=sys.stderr)
    fleet = build_fleet_artifact(
        build_fleet_summary(ledger, assumptions, fidelity_doc=fidelity_doc), ledger
    )
    path = write_report(
        render_report(
            fleet=fleet,
            bench_docs=bench_docs,
            bench_comparison=bench_comparison,
            fidelity_doc=fidelity_doc,
            **sections,
        ),
        out,
    )
    return path, write_fleet_artifact(fleet, path.parent), fleet


def _load_json(path: Path) -> dict[str, Any] | None:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def _load_trace_events(path: Path) -> list[dict[str, Any]]:
    events = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict):
            events.append(doc)
    return events


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    """``repro-report`` — assemble ``report.html`` from on-disk artifacts."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Fuse the fleet decision (dedicated vs consolidated, "
        "priced in servers, kWh, $ and CO2), fidelity scoreboard, run "
        "manifest, metrics, trace, telemetry, BENCH trend and experiment "
        "summaries into one self-contained HTML report plus a FLEET_*.json "
        "companion — without re-running any experiment.",
    )
    parser.add_argument(
        "--results",
        default="results/full",
        metavar="DIR",
        help="results directory holding <id>.json experiment artifacts "
        "(default: results/full)",
    )
    parser.add_argument(
        "--scan",
        action="append",
        metavar="DIR",
        help="further directories the run ledger indexes recursively after "
        "--results, for BENCH trend points and fleet audit inputs "
        "(repeatable; default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--manifest",
        metavar="FILE",
        help="run manifest (default: <results>/run_manifest.json when present)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", help="JSONL event trace to summarise"
    )
    parser.add_argument(
        "--timeseries",
        metavar="FILE",
        help="repro.timeseries/v1 JSONL artifact to render as timeline "
        "charts (default: <results>/timeseries.jsonl, else any *.jsonl "
        "under <results> carrying the schema; the section is simply "
        "omitted when none exists)",
    )
    parser.add_argument(
        "--access-log",
        metavar="FILE",
        help="repro.access/v1 JSONL written by repro-serve to render as the "
        "Service section (default: <results>/access.jsonl when present; "
        "the section is omitted when none exists)",
    )
    parser.add_argument(
        "--fidelity",
        metavar="FILE",
        help="FIDELITY_*.json to show (default: the newest one indexed, "
        "else evaluate declared expectations against the indexed results)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="bench baseline artifact to compare the newest BENCH_*.json "
        f"against (default: {BENCH_BASELINE} when present)",
    )
    add_assumption_arguments(parser)
    parser.add_argument("--title", default="repro run report")
    parser.add_argument(
        "--out",
        default="report.html",
        metavar="FILE",
        help="output HTML path; FLEET_*.json lands in the same directory",
    )
    args = parser.parse_args(argv)

    try:
        assumptions = AuditAssumptions.from_mapping(vars(args))
    except ValueError as exc:
        return _error(str(exc))
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        return _error(f"results directory not found: {results_dir}")
    if args.baseline and not Path(args.baseline).is_file():
        return _error(f"no such baseline: {args.baseline}")

    ledger = build_ledger([results_dir, *(args.scan or [BENCH_BASELINE.parent])])
    # The results directory is this report's subject, so unlike the rest of
    # the ledger it must not silently lose a corrupt file.
    for skip in ledger.skipped:
        if Path(skip.path).parent == results_dir and skip.reason.startswith(
            ("truncated", "unreadable")
        ):
            return _error(f"unreadable results artifact {skip.path}: {skip.reason}")
    own = [e for e in ledger.entries if Path(e.path).parent == results_dir]
    results = [dict(e.doc) for e in own if e.kind == "result"]

    if args.manifest:
        manifest = _load_json(Path(args.manifest))
        if manifest is None:
            return _error(f"missing or unreadable manifest: {args.manifest}")
    else:
        manifest = next(
            (dict(e.doc) for e in own if Path(e.path).name == "run_manifest.json"),
            None,
        )

    # An explicit service access log is renderable on its own (a
    # discovered one is already among the indexed artifacts).
    if not own and not args.access_log:
        return _error(
            f"no run artifacts under {results_dir} — run "
            f"'repro-experiments --output {results_dir}' first"
        )

    trace_events = None
    if args.trace:
        trace_path = Path(args.trace)
        if not trace_path.exists():
            return _error(f"no such trace: {trace_path}")
        trace_events = _load_trace_events(trace_path)

    timeseries_docs = None
    if args.timeseries:
        try:
            series_docs, alarm_docs = load_timeseries_jsonl(args.timeseries)
        except (OSError, ValueError) as exc:
            return _error(f"unreadable timeseries artifact: {exc}")
        timeseries_docs = series_docs + alarm_docs
    else:
        # Prefer the conventional name, then accept any indexed JSONL in
        # the results directory carrying the v1 schema.  Absence is fine —
        # the report simply has no timeline section.
        candidates = sorted(
            (Path(e.path) for e in own if e.kind == "trace"),
            key=lambda p: p.name != "timeseries.jsonl",
        )
        for candidate in candidates:
            try:
                series_docs, alarm_docs = load_timeseries_jsonl(candidate)
            except (OSError, ValueError):
                continue  # foreign JSONL (e.g. a trace export): skip
            if series_docs or alarm_docs:
                timeseries_docs = series_docs + alarm_docs
                break

    # Imported lazily: repro.obs.__init__ imports this module, and
    # repro.service's package import reaches repro.core, whose model
    # imports get_registry from the half-initialised repro.obs — a
    # top-level import would be circular.
    from ..service.accesslog import load_access_log

    access_docs = None
    access_path = Path(args.access_log or results_dir / "access.jsonl")
    if args.access_log or access_path.is_file():
        try:
            access_docs = load_access_log(access_path)
        except (OSError, ValueError) as exc:
            if args.access_log:
                return _error(f"unreadable access log: {exc}")
            # a foreign or truncated discovered file: no section

    fidelity_doc = None
    if args.fidelity:
        try:
            fidelity_doc = load_fidelity_artifact(args.fidelity)
        except (FileNotFoundError, ValueError) as exc:
            return _error(str(exc))

    try:
        path, fleet_path, fleet = write_ledger_report(
            ledger,
            args.out,
            assumptions=assumptions,
            fidelity_doc=fidelity_doc,
            baseline=args.baseline or BENCH_BASELINE,
            title=args.title,
            manifest=manifest,
            trace_events=trace_events,
            timeseries_docs=timeseries_docs,
            access_docs=access_docs,
            results=results,
        )
    except OSError as exc:
        print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"report: {path}")
    print(f"fleet artifact: {fleet_path}")
    print(fleet["decision"]["headline"])
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
