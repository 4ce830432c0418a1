"""Conformance parser for the Prometheus text exposition format.

Independent of the renderer in :mod:`repro.obs.export`: the exporter,
``GET /metrics`` and the service's shutdown snapshot are all checked by
parsing their output back with :func:`parse_prometheus_text`.
"""

from __future__ import annotations

import math
import re
from typing import Any

__all__ = ["parse_prometheus_text"]


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
    This is the round-trip validator for
    :func:`repro.obs.export.prometheus_text` — the ``/metrics`` endpoint
    and the file exporter are both tested through it.
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
