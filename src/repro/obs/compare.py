"""Noise-aware comparison of two ``repro.bench/v1`` artifacts.

Benchmark timings on shared machines are noisy; a single fast or slow
repeat must not flip a verdict.  Comparison therefore uses the
median-of-repeats from each artifact and a configurable relative
threshold: a benchmark is a *regression* only when its new median exceeds
the baseline median by more than ``threshold`` (and an *improvement* in
the symmetric case).  Everything inside the band is *unchanged*.  The
default band is ±25%: measured same-commit rerun noise on shared
machines reaches ~15% on multi-millisecond benches and worse below a
millisecond, so a tighter default would flag phantom regressions.

The overall verdict string is exactly ``"regression"`` or
``"no regression"`` so gates (CI, scripts) can match on it.  A benchmark
that failed in either artifact gets the ``"error"`` verdict instead of a
timing verdict; ``repro-bench compare --fail-on-regression`` fails on
those too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .bench import validate_artifact

__all__ = [
    "BenchDelta",
    "Comparison",
    "compare_artifacts",
    "fmt_seconds",
    "load_artifact",
    "verdict_table",
]

#: Verdicts a single benchmark can receive.
VERDICTS = ("regression", "improvement", "unchanged", "added", "removed", "error")


@dataclass(frozen=True)
class BenchDelta:
    """Per-benchmark comparison outcome."""

    name: str
    base_median: float | None
    new_median: float | None
    rel_change: float | None  # new/base - 1; None when undefined
    verdict: str


@dataclass(frozen=True)
class Comparison:
    """Full comparison: one :class:`BenchDelta` per benchmark name."""

    threshold: float
    metric: str
    deltas: tuple[BenchDelta, ...]

    @property
    def regressions(self) -> tuple[BenchDelta, ...]:
        return tuple(d for d in self.deltas if d.verdict == "regression")

    @property
    def improvements(self) -> tuple[BenchDelta, ...]:
        return tuple(d for d in self.deltas if d.verdict == "improvement")

    @property
    def errors(self) -> tuple[BenchDelta, ...]:
        return tuple(d for d in self.deltas if d.verdict == "error")

    @property
    def verdict(self) -> str:
        return "regression" if self.regressions else "no regression"

    def to_doc(self) -> dict[str, Any]:
        """JSON-serialisable comparison document (``repro-bench compare --json``)."""
        counts = {v: 0 for v in VERDICTS}
        for d in self.deltas:
            counts[d.verdict] += 1
        return {
            "schema": "repro.bench-compare/v1",
            "metric": self.metric,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "counts": counts,
            "deltas": [
                {
                    "name": d.name,
                    "base_median_s": d.base_median,
                    "new_median_s": d.new_median,
                    "rel_change": d.rel_change,
                    "verdict": d.verdict,
                }
                for d in self.deltas
            ],
        }


def load_artifact(path: str | Path) -> dict[str, Any]:
    """Load and validate a ``BENCH_*.json`` artifact."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(f"no such bench artifact: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    try:
        validate_artifact(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return doc


def _median(entry: Mapping[str, Any], metric: str) -> float | None:
    timing = entry.get(metric) or {}
    value = timing.get("median")
    return float(value) if value is not None else None


def _delta(
    name: str,
    base_entry: Mapping[str, Any] | None,
    new_entry: Mapping[str, Any] | None,
    metric: str,
    threshold: float,
) -> BenchDelta:
    if base_entry is None:
        return BenchDelta(name, None, _median(new_entry, metric), None, "added")
    if new_entry is None:
        return BenchDelta(name, _median(base_entry, metric), None, None, "removed")
    base = _median(base_entry, metric) if base_entry.get("ok", False) else None
    new = _median(new_entry, metric) if new_entry.get("ok", False) else None
    if base is None or new is None:
        return BenchDelta(name, base, new, None, "error")
    if base == 0.0:
        rel = math.inf if new > 0.0 else 0.0
    else:
        rel = new / base - 1.0
    if rel > threshold:
        verdict = "regression"
    elif rel < -threshold:
        verdict = "improvement"
    else:
        verdict = "unchanged"
    return BenchDelta(name, base, new, rel, verdict)


def compare_artifacts(
    base: Mapping[str, Any],
    new: Mapping[str, Any],
    *,
    threshold: float = 0.25,
    metric: str = "wall_s",
) -> Comparison:
    """Compare two artifact documents benchmark-by-benchmark.

    ``threshold`` is the relative band (0.25 = ±25% of the baseline
    median); ``metric`` selects ``wall_s`` or ``cpu_s`` medians.
    """
    if threshold < 0.0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    if metric not in ("wall_s", "cpu_s"):
        raise ValueError(f"metric must be wall_s or cpu_s, got {metric!r}")
    base_by = {e["name"]: e for e in base["benchmarks"]}
    new_by = {e["name"]: e for e in new["benchmarks"]}
    deltas = tuple(
        _delta(name, base_by.get(name), new_by.get(name), metric, threshold)
        for name in sorted(set(base_by) | set(new_by))
    )
    return Comparison(threshold=threshold, metric=metric, deltas=deltas)


def fmt_seconds(value: float | None) -> str:
    """``1.234s`` at one second and above, ``12.34ms`` below, ``-`` for None."""
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{1e3 * value:.2f}ms"


def _fmt_rel(value: float | None) -> str:
    if value is None:
        return "-"
    if value == math.inf:
        return "+inf"
    return f"{100.0 * value:+.1f}%"


def verdict_table(comparison: Comparison) -> str:
    """Human-readable verdict table plus a one-line summary."""
    name_w = max([len(d.name) for d in comparison.deltas] + [len("benchmark")])
    header = (
        f"{'benchmark':<{name_w}}  {'base':>10}  {'new':>10}  {'delta':>8}  verdict"
    )
    lines = [header, "-" * len(header)]
    for d in comparison.deltas:
        lines.append(
            f"{d.name:<{name_w}}  {fmt_seconds(d.base_median):>10}  "
            f"{fmt_seconds(d.new_median):>10}  {_fmt_rel(d.rel_change):>8}  {d.verdict}"
        )
    lines.append("")
    lines.append(
        f"verdict: {comparison.verdict} "
        f"({len(comparison.regressions)} regressions, "
        f"{len(comparison.improvements)} improvements, "
        f"{len(comparison.errors)} errors, "
        f"threshold ±{100.0 * comparison.threshold:.0f}% on median {comparison.metric})"
    )
    return "\n".join(lines)
