"""Fidelity scoreboard artifact and table.

:mod:`repro.obs.fidelity` grades experiment summaries against the
expectations each experiment module declares; this module serialises a
graded :class:`~repro.obs.fidelity.Scoreboard` as an append-only
``FIDELITY_<date>_<sha>.json`` artifact (schema ``repro.fidelity/v1``,
read and written through :data:`FIDELITY`) in the same spirit as
``BENCH_*.json``, and renders it as a text table.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..obs.fidelity import VERDICTS, MetricVerdict, Scoreboard
from .artifacts import ArtifactKind

__all__ = [
    "FIDELITY",
    "FIDELITY_SCHEMA",
    "build_fidelity_artifact",
    "scoreboard_table",
]

FIDELITY_SCHEMA = "repro.fidelity/v1"


def _check_verdicts(doc: Mapping[str, Any]) -> None:
    if doc["overall"] not in VERDICTS:
        raise ValueError(f"unknown overall verdict {doc['overall']!r}")
    if not isinstance(doc["verdicts"], list):
        raise ValueError("fidelity artifact 'verdicts' must be a list")
    for entry in doc["verdicts"]:
        for key in ("experiment", "metric", "verdict", "expected"):
            if key not in entry:
                raise ValueError(f"verdict entry missing {key!r}: {entry}")
        if entry["verdict"] not in VERDICTS:
            raise ValueError(f"unknown verdict {entry['verdict']!r}")


#: The ``FIDELITY_*.json`` artifact family.
FIDELITY = ArtifactKind(
    "fidelity", FIDELITY_SCHEMA, "FIDELITY", ("overall", "verdicts"), _check_verdicts
)


def _verdict_doc(v: MetricVerdict) -> dict[str, Any]:
    return {
        "experiment": v.experiment,
        "metric": v.metric,
        "verdict": v.verdict,
        "expected": v.expected,
        "actual": v.actual,
        "op": v.op,
        "tolerance": v.tolerance,
        "detail": v.detail,
        "source": v.source,
        "note": v.note,
    }


def build_fidelity_artifact(
    scoreboard: Scoreboard,
    *,
    git_sha: str | None = None,
    created_utc: str | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the ``repro.fidelity/v1`` artifact document."""
    inputs = {
        "experiments": scoreboard.experiments,
        "metrics": [f"{v.experiment}.{v.metric}" for v in scoreboard.verdicts],
    }
    doc: dict[str, Any] = {
        **FIDELITY.envelope(inputs, git_sha=git_sha, created_utc=created_utc),
        "overall": scoreboard.overall,
        "counts": scoreboard.counts,
        "verdicts": [_verdict_doc(v) for v in scoreboard.verdicts],
    }
    if extra:
        doc.update(dict(extra))
    return doc


def _fmt(value: Any) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def scoreboard_table(scoreboard: Scoreboard) -> str:
    """Human-readable scoreboard plus a one-line summary."""
    rows = [
        (
            v.experiment,
            v.metric,
            _fmt(v.expected),
            _fmt(v.actual),
            v.op,
            v.verdict.upper() if v.verdict == "fail" else v.verdict,
        )
        for v in scoreboard.verdicts
    ]
    headers = ("experiment", "metric", "expected", "actual", "op", "verdict")
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    counts = scoreboard.counts
    lines.append("")
    lines.append(
        f"fidelity: {scoreboard.overall} "
        f"({counts['match']} match, {counts['drift']} drift, "
        f"{counts['fail']} fail over {len(scoreboard.experiments)} experiments)"
    )
    return "\n".join(lines)
