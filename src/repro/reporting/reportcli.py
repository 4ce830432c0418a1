"""``repro-report`` — render a run's on-disk artifacts into one HTML report.

Discovery goes through the run ledger (:mod:`repro.reporting.ledger`):
the ``--results`` directory first, then every ``--scan`` directory.
Nothing is re-run; the page and its ``FLEET_*.json`` companion come from
:func:`repro.reporting.report.write_ledger_report`.  Bad input — a
missing directory, an unreadable artifact in ``--results``, an invalid
assumption — exits 2 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from ..obs.timeseries import load_timeseries_jsonl
from ..service.accesslog import load_access_log
from .fidelity import FIDELITY
from .fleet import AuditAssumptions
from .ledger import build_ledger
from .report import BENCH_BASELINE, add_assumption_arguments, write_ledger_report

__all__ = ["main"]


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
            fidelity_doc = FIDELITY.load(args.fidelity)
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
