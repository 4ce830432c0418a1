"""Exporters: Prometheus text format, JSONL traces, and run manifests.

The run manifest is the provenance record written next to experiment
results: what was run (canonically hashed inputs), with which seed, by
which model version, how long it took, and a full metric snapshot.  Two
runs with the same inputs produce the same ``inputs_hash``, so result
directories can be audited for staleness.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path
from typing import Any, Mapping

from .envinfo import MODEL_VERSION, environment_fingerprint
from .registry import MetricsRegistry, NullRegistry
from .trace import NullTraceLog, TraceLog

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "prometheus_text",
    "parse_prometheus_text",
    "write_prometheus",
    "write_trace_jsonl",
    "inputs_hash",
    "environment_fingerprint",
    "build_manifest",
    "write_manifest",
    "MANIFEST_SCHEMA",
]

MANIFEST_SCHEMA = "repro.run-manifest/v1"

#: Content type of the text exposition format, as Prometheus scrapers send
#: it in ``Accept`` and expect it back — served by ``GET /metrics``
#: (:mod:`repro.service.app`) and recorded next to file exports.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    # Text exposition format: label values escape backslash, double-quote,
    # and line feed (in this order — backslash first).
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    # HELP lines escape backslash and line feed only (quotes are legal).
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _labels_text(labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = tuple(labels) + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry | NullRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Timers render as histograms of seconds.  Counters keep whatever name
    they were registered under (instrumentation sites use ``_total``
    suffixes by convention).  Every family gets both a ``# HELP`` and a
    ``# TYPE`` line (families registered without help text self-describe
    with their own name), so the output round-trips through
    :func:`parse_prometheus_text` — the exposition-conformance contract
    ``GET /metrics`` and the file exporter share.
    """
    lines: list[str] = []
    for name, kind, help, instruments in registry.families():
        prom_kind = "histogram" if kind == "timer" else kind
        lines.append(f"# HELP {name} {_escape_help(help or name)}")
        lines.append(f"# TYPE {name} {prom_kind}")
        for inst in instruments:
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{_labels_text(inst.labels)} {_fmt(inst.value)}")
                continue
            histogram = inst.histogram if kind == "timer" else inst
            for bound, cumulative in histogram.bucket_counts():
                le = _labels_text(inst.labels, (("le", _fmt(bound)),))
                lines.append(f"{name}_bucket{le} {cumulative}")
            suffix = _labels_text(inst.labels)
            lines.append(f"{name}_sum{suffix} {_fmt(histogram.sum)}")
            lines.append(f"{name}_count{suffix} {histogram.count}")
    return "\n".join(lines) + ("\n" if lines else "")


#: ``name{labels} value`` sample line; labels optional, value any float token.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"[ \t]+(?P<value>\S+)[ \t]*$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)

_PROM_KINDS = ("counter", "gauge", "histogram", "summary", "untyped")


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_float(token: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    return float(token)


def _parse_labels(body: str | None) -> dict[str, str]:
    if not body:
        return {}
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(body):
        match = _LABEL_RE.match(body, pos)
        if match is None:
            raise ValueError(f"malformed label pair at {body[pos:]!r}")
        labels[match.group("key")] = _unescape_label_value(match.group("value"))
        pos = match.end()
        if pos < len(body):
            if body[pos] != ",":
                raise ValueError(f"expected ',' between labels at {body[pos:]!r}")
            pos += 1
    return labels


def parse_prometheus_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse (and conformance-check) the text exposition format.

    Returns ``{family: {"kind", "help", "samples": [(name, labels, value)]}}``.
    Raises ``ValueError`` on any format violation: a sample without a
    preceding ``# TYPE``, a family missing its ``# HELP`` line, duplicate
    declarations, unknown metric kinds, or malformed sample/label syntax.
    This is the round-trip validator for :func:`prometheus_text` — the
    ``/metrics`` endpoint and the file exporter are both tested through it.
    """
    families: dict[str, dict[str, Any]] = {}
    helps: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(" ", 1)
            name = parts[0]
            if name in helps:
                raise ValueError(f"line {lineno}: duplicate HELP for {name!r}")
            helps[name] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed TYPE line {line!r}")
            name, kind = parts
            if kind not in _PROM_KINDS:
                raise ValueError(f"line {lineno}: unknown metric kind {kind!r}")
            if name in families:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name!r}")
            families[name] = {"kind": kind, "help": None, "samples": []}
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line {line!r}")
        sample_name = match.group("name")
        family_name = sample_name
        if family_name not in families:
            # Histogram series lines carry _bucket/_sum/_count suffixes.
            for suffix in ("_bucket", "_sum", "_count"):
                if sample_name.endswith(suffix):
                    family_name = sample_name[: -len(suffix)]
                    break
        family = families.get(family_name)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} precedes its "
                f"# TYPE declaration"
            )
        if family_name != sample_name and family["kind"] not in (
            "histogram",
            "summary",
        ):
            raise ValueError(
                f"line {lineno}: suffixed sample {sample_name!r} on "
                f"non-histogram family {family_name!r}"
            )
        labels = _parse_labels(match.group("labels"))
        try:
            value = _parse_float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric sample value "
                f"{match.group('value')!r}"
            ) from None
        family["samples"].append((sample_name, labels, value))
    for name, family in families.items():
        if name not in helps:
            raise ValueError(f"family {name!r} has no # HELP line")
        family["help"] = helps[name]
        if not family["samples"]:
            raise ValueError(f"family {name!r} declares a TYPE but no samples")
    for name in helps:
        if name not in families:
            raise ValueError(f"HELP for {name!r} without a TYPE declaration")
    return families


def write_prometheus(registry: MetricsRegistry | NullRegistry, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prometheus_text(registry))
    return path


def write_trace_jsonl(trace: TraceLog | NullTraceLog, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = trace.to_jsonl()
    path.write_text(text + "\n" if text else "")
    return path


def inputs_hash(inputs: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of ``inputs``.

    Key order, whitespace, and non-JSON scalars are normalised, so the hash
    is stable across runs and Python versions for the same logical inputs.
    """
    canonical = json.dumps(
        inputs, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(
    inputs: Mapping[str, Any],
    *,
    seed: int | None = None,
    wall_time_s: float | None = None,
    registry: MetricsRegistry | NullRegistry | None = None,
    trace: TraceLog | NullTraceLog | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a run manifest document.

    ``inputs`` is whatever identifies the run (experiment names, flags,
    deployment doc); it is stored verbatim and hashed canonically.
    """
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "model_version": MODEL_VERSION,
        "environment": environment_fingerprint(),
        "seed": seed,
        "inputs": dict(inputs),
        "inputs_hash": inputs_hash(inputs),
        "wall_time_s": wall_time_s,
        "metrics": registry.snapshot() if registry is not None else {},
    }
    if trace is not None:
        # capacity/dropped make ring-buffer truncation detectable post-hoc:
        # dropped > 0 means the JSONL export is missing the oldest events.
        manifest["trace"] = {
            "events": len(trace),
            "emitted": trace.emitted,
            "dropped": trace.dropped,
            "dropped_by_kind": trace.dropped_by_kind,
            "capacity": trace.capacity,
        }
    if extra:
        manifest.update(dict(extra))
    return manifest


def write_manifest(manifest: Mapping[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return path
