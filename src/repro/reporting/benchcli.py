"""``repro-bench`` — record and compare performance-trajectory artifacts.

Subcommands:

- ``run``      discover + run benchmarks, write a ``BENCH_*.json`` artifact;
- ``compare``  verdict table between a baseline artifact and a new one;
- ``merge``    pool repeats of several same-suite runs into one artifact
  (how committed baselines are refreshed — see ``merge_artifacts``);
- ``report``   pretty-print a single artifact;
- ``ratio``    throughput ratio between two benchmarks of one artifact,
  with an optional ``--min-ratio`` floor (exit 1 below it) — the CI gate
  keeping the vectorized Erlang kernel >= 10x the scalar loop.

``run`` executes the on-disk pytest-benchmark suites (``benchmarks/``) via
the fixture adapter in :mod:`repro.reporting.bench`, the only place a benchmark
is registered; ``--select`` filters by fnmatch against benchmark name or
group (e.g. ``--select 'bench_table1_model*'``); when every pattern has a
``module::`` prefix only the matching modules are imported, and a module
that fails to import exits 2 with one line.  ``compare`` exits 1 on a
"regression" verdict or an errored benchmark only under
``--fail-on-regression``, so CI can run report-only on pull requests and
gate pushes.  A benchmark missing from the new artifact ("removed") never
fails the gate: renames happen.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .bench import (
    BENCH,
    BenchResult,
    build_artifact,
    discover_suite,
    merge_artifacts,
    run_specs,
    select_specs,
)
from .compare import compare_artifacts, fmt_seconds, verdict_table

__all__ = ["main"]


def _fmt_bytes(value: int | None) -> str:
    if value is None:
        return "-"
    if value >= 1 << 20:
        return f"{value / (1 << 20):.1f}MiB"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.1f}KiB"
    return f"{value}B"


def _cmd_run(args) -> int:
    try:
        specs = select_specs(
            discover_suite(args.bench_dir, select=args.select), args.select
        )
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("error: no benchmarks match the selection", file=sys.stderr)
        return 2
    if args.list:
        for spec in specs:
            print(f"{spec.name}  [{spec.group}]")
        return 0

    def show(result: BenchResult) -> None:
        status = (
            fmt_seconds(result.wall_median)
            if result.ok
            else f"FAILED ({result.error})"
        )
        print(f"  {result.name:<52} {status}", file=sys.stderr)

    print(
        f"running {len(specs)} benchmarks "
        f"(warmup={args.warmup}, repeats={args.repeats})",
        file=sys.stderr,
    )
    results = run_specs(
        specs,
        warmup=args.warmup,
        repeats=args.repeats,
        min_sample_s=args.min_sample,
        track_allocations=not args.no_alloc,
        on_result=show,
    )
    artifact = build_artifact(
        results,
        warmup=args.warmup,
        repeats=args.repeats,
        selection=args.select or [],
    )
    try:
        path = BENCH.write(artifact, args.out)
    except OSError as exc:
        print(f"error: cannot write bench artifact under {args.out}: {exc}", file=sys.stderr)
        return 1
    failed = [r for r in results if not r.ok]
    print(f"bench artifact: {path}")
    if failed:
        print(
            f"warning: {len(failed)} benchmark(s) failed: "
            + ", ".join(r.name for r in failed),
            file=sys.stderr,
        )
        return 1
    return 0


def _load(path: str):
    try:
        return BENCH.load(path)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_compare(args) -> int:
    base = _load(args.baseline)
    new = _load(args.new)
    if base is None or new is None:
        return 2
    try:
        comparison = compare_artifacts(
            base, new, threshold=args.threshold, metric=args.metric
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(comparison.to_doc(), indent=2))
    else:
        print(verdict_table(comparison))
    if args.fail_on_regression and (comparison.regressions or comparison.errors):
        return 1
    return 0


def _cmd_merge(args) -> int:
    docs = [_load(p) for p in args.artifacts]
    if any(doc is None for doc in docs):
        return 2
    try:
        merged = merge_artifacts(docs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(merged, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write merged artifact to {out}: {exc}", file=sys.stderr)
        return 1
    print(f"merged {len(docs)} artifacts -> {out}")
    return 0


def _cmd_ratio(args) -> int:
    doc = _load(args.artifact)
    if doc is None:
        return 2
    by_name = {e["name"]: e for e in doc["benchmarks"]}
    entries = []
    for name in (args.slow, args.fast):
        entry = by_name.get(name)
        if entry is None:
            print(
                f"error: benchmark {name!r} not in artifact "
                f"(has: {sorted(by_name)})",
                file=sys.stderr,
            )
            return 2
        if not entry["ok"]:
            print(
                f"error: benchmark {name!r} failed: {entry.get('error')}",
                file=sys.stderr,
            )
            return 2
        entries.append(entry)
    slow_s = entries[0][args.metric]["median"]
    fast_s = entries[1][args.metric]["median"]
    if fast_s <= 0.0:
        print(f"error: {args.fast} recorded a non-positive median", file=sys.stderr)
        return 2
    ratio = slow_s / fast_s
    print(
        f"{args.slow}: {fmt_seconds(slow_s)}  /  {args.fast}: {fmt_seconds(fast_s)}"
        f"  ->  {ratio:.1f}x"
    )
    if args.min_ratio is not None and ratio < args.min_ratio:
        print(
            f"FAIL: ratio {ratio:.1f}x is below the required "
            f"{args.min_ratio:g}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_report(args) -> int:
    doc = _load(args.artifact)
    if doc is None:
        return 2
    print(
        f"bench artifact {args.artifact}\n"
        f"  schema   : {doc['schema']}\n"
        f"  created  : {doc['created_utc']}\n"
        f"  git sha  : {doc['git_sha']}\n"
        f"  python   : {doc['environment'].get('python', '?')}"
        f" on {doc['environment'].get('platform', '?')}\n"
        f"  warmup/repeats : {doc.get('warmup')}/{doc.get('repeats')}\n"
    )
    entries = doc["benchmarks"]
    name_w = max([len(e["name"]) for e in entries] + [len("benchmark")])
    header = (
        f"{'benchmark':<{name_w}}  {'wall med':>10}  {'wall min':>10}  "
        f"{'cpu med':>10}  {'alloc peak':>10}"
    )
    print(header)
    print("-" * len(header))
    for e in entries:
        if not e["ok"]:
            print(f"{e['name']:<{name_w}}  FAILED: {e.get('error')}")
            continue
        print(
            f"{e['name']:<{name_w}}  {fmt_seconds(e['wall_s']['median']):>10}  "
            f"{fmt_seconds(e['wall_s']['min']):>10}  "
            f"{fmt_seconds(e['cpu_s']['median']):>10}  "
            f"{_fmt_bytes(e['alloc'].get('peak_bytes')):>10}"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run benchmarks, record BENCH_*.json artifacts, and "
        "compare them for regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run benchmarks and write an artifact")
    run_p.add_argument(
        "--bench-dir",
        default="benchmarks",
        help="directory holding bench_*.py suites (default: benchmarks)",
    )
    run_p.add_argument(
        "--select",
        action="append",
        metavar="PATTERN",
        help="fnmatch filter on benchmark name or group (repeatable)",
    )
    run_p.add_argument("--warmup", type=int, default=1, help="throwaway runs first")
    run_p.add_argument("--repeats", type=int, default=5, help="timed repeats")
    run_p.add_argument(
        "--min-sample",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="calibrate inner iterations so each timed sample lasts at "
        "least this long (0 = time single calls; default 0.1s)",
    )
    run_p.add_argument(
        "--out", default=".", metavar="DIR", help="artifact directory (default: .)"
    )
    run_p.add_argument(
        "--no-alloc", action="store_true", help="skip the tracemalloc pass"
    )
    run_p.add_argument(
        "--list", action="store_true", help="list selected benchmarks, run nothing"
    )
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser("compare", help="compare two artifacts")
    cmp_p.add_argument("baseline", help="baseline BENCH_*.json")
    cmp_p.add_argument("new", help="new BENCH_*.json")
    cmp_p.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative band on the median (default 0.25 = ±25%%)",
    )
    cmp_p.add_argument(
        "--metric", choices=("wall_s", "cpu_s"), default="wall_s"
    )
    cmp_p.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when the verdict is 'regression' or a benchmark "
        "errored in either artifact",
    )
    cmp_p.add_argument("--json", action="store_true", help="emit the comparison JSON")
    cmp_p.set_defaults(fn=_cmd_compare)

    merge_p = sub.add_parser(
        "merge",
        help="pool repeats of several same-suite artifacts (baseline refresh)",
    )
    merge_p.add_argument("artifacts", nargs="+", help="BENCH_*.json files to pool")
    merge_p.add_argument(
        "--out", required=True, metavar="FILE", help="path for the merged artifact"
    )
    merge_p.set_defaults(fn=_cmd_merge)

    rep_p = sub.add_parser("report", help="pretty-print one artifact")
    rep_p.add_argument("artifact", help="BENCH_*.json to show")
    rep_p.set_defaults(fn=_cmd_report)

    ratio_p = sub.add_parser(
        "ratio",
        help="throughput ratio slow/fast between two benchmarks of one "
        "artifact, with an optional floor",
    )
    ratio_p.add_argument("artifact", help="BENCH_*.json holding both benchmarks")
    ratio_p.add_argument("slow", help="name of the slow (numerator) benchmark")
    ratio_p.add_argument("fast", help="name of the fast (denominator) benchmark")
    ratio_p.add_argument(
        "--metric", choices=("wall_s", "cpu_s"), default="wall_s"
    )
    ratio_p.add_argument(
        "--min-ratio",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 when slow/fast falls below this speedup factor",
    )
    ratio_p.set_defaults(fn=_cmd_ratio)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
