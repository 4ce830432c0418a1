"""Building blocks for the self-contained HTML report.

The report (:mod:`repro.obs.report`) is dependency-free HTML: no
JavaScript, no external assets, figures as inline SVG.  This module holds
its pieces (stylesheet, escaping, number formatting, tables, badges,
sparklines, the page shell) so every section looks the same and the
"self-contained" contract is tested in one place.
"""

from __future__ import annotations

import html as _html
from typing import Any, Mapping, Sequence

__all__ = [
    "CSS",
    "esc",
    "fmt_value",
    "fmt_number",
    "mono",
    "badge",
    "table",
    "kv_table",
    "sparkline",
    "timeline_chart",
    "page",
]

CSS = """
body { font-family: -apple-system, "Segoe UI", Helvetica, Arial, sans-serif;
       margin: 2em auto; max-width: 70em; padding: 0 1em; color: #1a1a1a; }
h1 { border-bottom: 2px solid #444; padding-bottom: .2em; }
h2 { margin-top: 2em; border-bottom: 1px solid #bbb; padding-bottom: .15em; }
table { border-collapse: collapse; margin: .8em 0; font-size: .92em; }
th, td { border: 1px solid #ccc; padding: .25em .6em; text-align: left; }
th { background: #f0f0f0; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.badge { display: inline-block; padding: .05em .55em; border-radius: .8em;
         font-size: .85em; font-weight: 600; color: #fff; }
.badge-match { background: #1a7f37; }
.badge-drift { background: #b58900; }
.badge-fail { background: #c0392b; }
.badge-regression { background: #c0392b; }
.badge-improvement { background: #1a7f37; }
.badge-consolidated { background: #1a7f37; }
.badge-dedicated { background: #b58900; }
.badge-unchanged, .badge-added, .badge-removed, .badge-error,
.badge-skipped, .badge-info { background: #6c757d; }
.muted { color: #666; font-size: .9em; }
.mono { font-family: ui-monospace, "SF Mono", Menlo, Consolas, monospace;
        font-size: .88em; }
details > summary { cursor: default; font-weight: 600; margin: .4em 0; }
ul.tree { list-style: none; padding-left: 1.2em; margin: .3em 0; }
ul.tree li { margin: .12em 0; }
svg.spark { vertical-align: middle; }
.warnbox { background: #fff6e0; border: 1px solid #e0c060;
           padding: .4em .8em; border-radius: .3em; margin: .5em 0; }
.headline { font-size: 1.15em; background: #eef6ee; border: 1px solid #9c9;
            padding: .6em 1em; border-radius: .3em; margin: .8em 0; }
"""


def esc(value: Any) -> str:
    """HTML-escape ``value`` (rendered through ``str``)."""
    return _html.escape(str(value), quote=True)


def fmt_value(value: Any) -> str:
    """Compact scalar formatting: 5 significant digits for floats."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if value != value:
            return "nan"
        return f"{value:.5g}"
    return str(value)


def fmt_number(value: Any, unit: str = "", digits: int = 1, prefix: str = "") -> str:
    """Thousands-separated fixed-point number (``–`` when not a number).

    Money is ``fmt_number(v, digits=2, prefix="$")``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "–"
    return f"{prefix}{value:,.{digits}f}{unit}"


def mono(value: Any) -> str:
    """Escaped ``value`` in a monospace span (numbers, names, paths)."""
    return f'<span class="mono">{esc(value)}</span>'


def badge(verdict: str) -> str:
    """Coloured pill for a verdict string (unknown verdicts render grey)."""
    cls = verdict if verdict in (
        "match", "drift", "fail", "regression", "improvement",
        "unchanged", "added", "removed", "error", "skipped",
        "consolidated", "dedicated",
    ) else "info"
    return f'<span class="badge badge-{cls}">{esc(verdict)}</span>'


def table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Table over pre-rendered (possibly HTML) cell strings."""
    head = "".join(f"<th>{esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def kv_table(pairs: Mapping[str, Any]) -> str:
    """Two-column key/value table with monospace values."""
    return table(
        ("key", "value"),
        [(esc(k), f'<span class="mono">{esc(fmt_value(v))}</span>')
         for k, v in pairs.items()],
    )


def sparkline(
    values: Sequence[float], width: int = 120, height: int = 26
) -> str:
    """Inline SVG polyline over ``values`` (min-max normalised)."""
    pts = [float(v) for v in values if v == v]
    if len(pts) < 2:
        return '<span class="muted">–</span>'
    lo, hi = min(pts), max(pts)
    span = (hi - lo) or 1.0
    pad = 2.0
    step = (width - 2 * pad) / (len(pts) - 1)
    coords = " ".join(
        f"{pad + i * step:.1f},{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(pts)
    )
    last_y = height - pad - (pts[-1] - lo) / span * (height - 2 * pad)
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<polyline points="{coords}" fill="none" stroke="#2a6fb0" '
        f'stroke-width="1.5"/>'
        f'<circle cx="{pad + (len(pts) - 1) * step:.1f}" cy="{last_y:.1f}" '
        f'r="2.2" fill="#2a6fb0"/></svg>'
    )


def timeline_chart(
    t0: float,
    bucket_width: float,
    values: Sequence[float],
    *,
    markers: Sequence[Mapping[str, Any]] = (),
    width: int = 640,
    height: int = 110,
    stroke: str = "#2a6fb0",
    unit: str = "",
) -> str:
    """Inline-SVG time series over virtual time with alarm markers.

    ``values`` are per-bucket aggregates starting at ``t0`` with uniform
    ``bucket_width``; ``markers`` are alarm documents (``t``, ``state``,
    ``rule``) drawn as vertical lines — red for ``fire``, green for
    ``clear`` — with the rule name in a ``<title>`` tooltip.  No scripts,
    no external assets (the reports' self-containment contract).
    """
    pts = [float(v) for v in values if v == v]
    if len(pts) < 2:
        return '<span class="muted">not enough telemetry buckets</span>'
    lo = min(min(pts), 0.0)
    hi = max(pts)
    span = (hi - lo) or 1.0
    pad_l, pad_r, pad_t, pad_b = 46.0, 8.0, 8.0, 20.0
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    t_end = t0 + bucket_width * len(pts)
    t_span = (t_end - t0) or 1.0

    def x_of(t: float) -> float:
        return pad_l + (t - t0) / t_span * plot_w

    def y_of(v: float) -> float:
        return pad_t + (1.0 - (v - lo) / span) * plot_h

    coords = " ".join(
        f"{x_of(t0 + (i + 0.5) * bucket_width):.1f},{y_of(v):.1f}"
        for i, v in enumerate(pts)
    )
    marks = []
    for doc in markers:
        t = float(doc.get("t", 0.0))
        if not t0 <= t <= t_end:
            continue
        firing = doc.get("state") == "fire"
        colour = "#c0392b" if firing else "#1a7f37"
        label = esc(f"{doc.get('rule', 'alarm')} {doc.get('state', '')} @ t={t:g}")
        marks.append(
            f'<line x1="{x_of(t):.1f}" y1="{pad_t:.1f}" x2="{x_of(t):.1f}" '
            f'y2="{pad_t + plot_h:.1f}" stroke="{colour}" stroke-width="1.2" '
            f'stroke-dasharray="{"" if firing else "3 2"}">'
            f"<title>{label}</title></line>"
        )
    axis_label = esc(f"{fmt_value(hi)}{unit}")
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<line x1="{pad_l:.1f}" y1="{pad_t + plot_h:.1f}" '
        f'x2="{pad_l + plot_w:.1f}" y2="{pad_t + plot_h:.1f}" '
        f'stroke="#999" stroke-width="1"/>'
        f'<line x1="{pad_l:.1f}" y1="{pad_t:.1f}" x2="{pad_l:.1f}" '
        f'y2="{pad_t + plot_h:.1f}" stroke="#999" stroke-width="1"/>'
        f'<text x="{pad_l - 4:.1f}" y="{pad_t + 4:.1f}" text-anchor="end" '
        f'font-size="9" fill="#666">{axis_label}</text>'
        f'<text x="{pad_l - 4:.1f}" y="{pad_t + plot_h:.1f}" text-anchor="end" '
        f'font-size="9" fill="#666">{esc(fmt_value(lo))}</text>'
        f'<text x="{pad_l:.1f}" y="{height - 6:.1f}" font-size="9" '
        f'fill="#666">t={esc(fmt_value(t0))}</text>'
        f'<text x="{pad_l + plot_w:.1f}" y="{height - 6:.1f}" text-anchor="end" '
        f'font-size="9" fill="#666">t={esc(fmt_value(t_end))}</text>'
        + "".join(marks)
        + f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="1.5"/></svg>'
    )


def page(title: str, body: str) -> str:
    """Wrap ``body`` in the shared self-contained page shell."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{esc(title)}</title>\n"
        f"<style>{CSS}</style>\n"
        f"</head><body>\n{body}\n</body></html>\n"
    )
