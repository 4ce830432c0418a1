"""Benchmark harness: discovery, timing, and BENCH artifacts.

The repo has always *had* benchmarks (``benchmarks/bench_*.py``, one per
paper artifact) but no recorded performance trajectory — nothing compared
one commit's timings against another's.  This module closes that loop:

- :func:`discover_suite` adapts the on-disk pytest-benchmark suites
  (``benchmarks/bench_*.py``) without pytest: a lightweight
  :class:`BenchmarkProxy` stands in for the ``benchmark`` fixture, each
  ``@pytest.mark.parametrize`` case becomes its own spec, and the harness
  times the whole test function.  The on-disk suite is the only way a
  benchmark is registered;
- :func:`run_specs` runs specs with warmup/repeat control, recording wall
  and CPU seconds per repeat plus a tracemalloc allocation pass.  Repeats
  use timeit-style calibrated inner iterations: each timed sample is a
  batch of calls sized to ``min_sample_s`` and reports the per-call
  average, which is what keeps sub-millisecond benchmarks comparable on
  noisy shared machines;
- :func:`build_artifact` assembles the ``BENCH_<YYYYMMDD>_<shortsha>.json``
  document (schema ``repro.bench/v1``) that :mod:`repro.reporting.compare`
  consumes; :data:`BENCH` validates, writes and loads it through the one
  artifact codec (:mod:`repro.reporting.artifacts`).

Everything is stdlib-only; numpy is touched only indirectly by the
benchmarks themselves.  The ``repro-bench`` CLI front end lives in
:mod:`repro.reporting.benchcli`.
"""

from __future__ import annotations

import importlib.util
import inspect
import math
import statistics
import sys
import tracemalloc
from dataclasses import dataclass, field
from fnmatch import fnmatch
from functools import partial
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..obs.export import inputs_hash
from ..obs.trace import get_trace
from .artifacts import ArtifactKind

__all__ = [
    "BENCH",
    "BENCH_SCHEMA",
    "BenchSpec",
    "BenchResult",
    "BenchmarkProxy",
    "discover_suite",
    "select_specs",
    "run_specs",
    "build_artifact",
    "merge_artifacts",
]

BENCH_SCHEMA = "repro.bench/v1"


def _check_benchmarks(doc: Mapping[str, Any]) -> None:
    if not isinstance(doc["benchmarks"], list):
        raise ValueError("bench artifact 'benchmarks' must be a list")
    for entry in doc["benchmarks"]:
        for key in ("name", "ok", "wall_s", "cpu_s"):
            if key not in entry:
                raise ValueError(f"benchmark entry missing {key!r}: {entry}")


#: The ``BENCH_*.json`` artifact family.
BENCH = ArtifactKind(
    "bench", BENCH_SCHEMA, "BENCH", ("benchmarks",), _check_benchmarks
)

#: Default location of the on-disk suite, relative to the repo root.
DEFAULT_BENCH_DIR = "benchmarks"


@dataclass(frozen=True)
class BenchSpec:
    """One runnable benchmark: a zero-argument callable plus identity."""

    name: str
    fn: Callable[[], Any]
    group: str = "default"
    source: str = "registered"


class BenchmarkProxy:
    """Minimal stand-in for the pytest-benchmark ``benchmark`` fixture.

    pytest-benchmark times the target itself over many rounds; here the
    harness times the *whole test function* instead, so the proxy just
    invokes the target once and hands back its return value (assertions in
    the benches keep guarding result shapes).
    """

    __slots__ = ("extra_info",)

    def __init__(self) -> None:
        self.extra_info: dict[str, Any] = {}

    def __call__(self, target: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return target(*args, **kwargs)

    def pedantic(
        self,
        target: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Mapping[str, Any] | None = None,
        rounds: int = 1,
        iterations: int = 1,
        warmup_rounds: int = 0,
        setup: Callable[[], Any] | None = None,
    ) -> Any:
        if setup is not None:
            prepared = setup()
            if prepared is not None:
                args, kwargs = prepared
        return target(*args, **(kwargs or {}))


def _default_rng():
    # Mirrors the `rng` fixture in benchmarks/conftest.py.
    import numpy as np

    return np.random.default_rng(20090101)


_FIXTURES: dict[str, Callable[[], Any]] = {
    "benchmark": BenchmarkProxy,
    "rng": _default_rng,
}


def _call_with_fixtures(
    fn: Callable[..., Any], fixtures: tuple[str, ...], case: Mapping[str, Any]
) -> Any:
    return fn(**case, **{p: _FIXTURES[p]() for p in fixtures})


def _import_bench_module(path: Path):
    name = f"_repro_bench_{path.stem}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - importlib guard
        raise ImportError(f"cannot load benchmark module {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def _mark_group(fn: Callable[..., Any]) -> str | None:
    for mark in getattr(fn, "pytestmark", ()):
        if getattr(mark, "name", None) == "benchmark":
            group = mark.kwargs.get("group")
            if group:
                return str(group)
    return None


def _case_id(ids: Any, argname: str, value: Any, index: int) -> str:
    # pytest's id rules: a callable ``ids`` first, then scalars by value,
    # functions and classes by name, anything else as argname + index.
    if callable(ids):
        custom = ids(value)
        if custom is not None:
            return str(custom)
    if value is None or isinstance(value, (str, int, float)):
        return str(value)
    return getattr(value, "__name__", f"{argname}{index}")


def _cases(fn: Callable[..., Any]) -> list[tuple[str, dict[str, Any]]]:
    """``(id, kwargs)`` for each case of ``fn``'s parametrize marks.

    A function without them has one case, ``("", {})``; stacked marks
    multiply out, their ids joined with ``-``.
    """
    cases: list[tuple[str, dict[str, Any]]] = [("", {})]
    for mark in getattr(fn, "pytestmark", ()):
        if getattr(mark, "name", None) != "parametrize":
            continue
        argnames, argvalues = mark.args[:2]
        if isinstance(argnames, str):
            argnames = [a.strip() for a in argnames.split(",") if a.strip()]
        ids = mark.kwargs.get("ids")
        expanded = []
        for index, values in enumerate(argvalues):
            values = tuple(values) if len(argnames) > 1 else (values,)
            if isinstance(ids, (list, tuple)):
                case_id = str(ids[index])
            else:
                case_id = "-".join(
                    _case_id(ids, name, value, index)
                    for name, value in zip(argnames, values)
                )
            expanded.append((case_id, dict(zip(argnames, values))))
        cases = [
            (f"{a}-{b}" if a else b, {**ka, **kb})
            for a, ka in cases
            for b, kb in expanded
        ]
    return cases


def discover_suite(
    bench_dir: str | Path = DEFAULT_BENCH_DIR,
    pattern: str = "bench_*.py",
    select: Sequence[str] | None = None,
) -> list[BenchSpec]:
    """Adapt the on-disk pytest-benchmark suite into :class:`BenchSpec` s.

    Imports every ``bench_*.py`` under ``bench_dir`` and wraps each
    ``test_*`` function whose only fixtures are ``benchmark``/``rng`` (the
    two the suite uses).  Names are ``<module>::<function>``, plus
    ``[<id>]`` for each ``@pytest.mark.parametrize`` case; groups come
    from ``@pytest.mark.benchmark(group=...)`` when present, else the
    module stem.

    When every ``select`` pattern names a module (``<module>::...``), only
    the modules whose stem matches one of those prefixes are imported, so
    one broken bench file cannot fail an unrelated selection.  Group
    patterns need every module: groups come from marks.  Filtering the
    specs themselves is :func:`select_specs`'s job.
    """
    bench_dir = Path(bench_dir)
    if not bench_dir.is_dir():
        raise FileNotFoundError(f"benchmark directory not found: {bench_dir}")
    stems = (
        [p.split("::", 1)[0] for p in select]
        if select and all("::" in p for p in select)
        else None
    )
    specs: list[BenchSpec] = []
    for path in sorted(bench_dir.glob(pattern)):
        if path.stem == "conftest":
            continue
        if stems is not None and not any(fnmatch(path.stem, s) for s in stems):
            continue
        try:
            module = _import_bench_module(path)
        except Exception as exc:
            raise ImportError(f"cannot import benchmark module {path}: {exc}") from exc
        for attr in sorted(vars(module)):
            if not attr.startswith("test_"):
                continue
            fn = getattr(module, attr)
            if not callable(fn) or getattr(fn, "__module__", None) != module.__name__:
                continue
            params = tuple(inspect.signature(fn).parameters)
            for case_id, case in _cases(fn):
                fixtures = tuple(p for p in params if p not in case)
                if any(p not in _FIXTURES for p in fixtures):
                    continue  # needs a fixture the adapter cannot supply
                specs.append(
                    BenchSpec(
                        name=f"{path.stem}::{attr}"
                        + (f"[{case_id}]" if case_id else ""),
                        fn=partial(_call_with_fixtures, fn, fixtures, case),
                        group=_mark_group(fn) or path.stem,
                        source=str(path),
                    )
                )
    return specs


def select_specs(
    specs: Iterable[BenchSpec], patterns: Sequence[str] | None
) -> list[BenchSpec]:
    """Filter specs by fnmatch patterns against name or group (None = all)."""
    specs = list(specs)
    if not patterns:
        return specs
    return [
        s
        for s in specs
        if any(fnmatch(s.name, p) or fnmatch(s.group, p) for p in patterns)
    ]


@dataclass
class BenchResult:
    """Timings for one benchmark: per-repeat wall/CPU seconds + allocations.

    ``wall_s``/``cpu_s`` entries are per-*call* seconds; when
    ``iterations > 1`` each entry is the average over one calibrated batch.
    """

    name: str
    group: str
    source: str
    wall_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    iterations: int = 1
    alloc_peak_bytes: int | None = None
    ok: bool = True
    error: str | None = None

    @property
    def wall_median(self) -> float | None:
        return statistics.median(self.wall_s) if self.wall_s else None

    @property
    def cpu_median(self) -> float | None:
        return statistics.median(self.cpu_s) if self.cpu_s else None


def _timing_doc(samples: list[float]) -> dict[str, Any]:
    if not samples:
        return {"repeats": [], "median": None, "min": None, "mean": None}
    return {
        "repeats": list(samples),
        "median": statistics.median(samples),
        "min": min(samples),
        "mean": statistics.fmean(samples),
    }


#: Cap on calibrated inner iterations per timed sample.
MAX_ITERATIONS = 1000

#: Calibration probe calls per benchmark (best one sizes the batch).
CALIBRATION_PROBES = 3


def run_specs(
    specs: Iterable[BenchSpec],
    *,
    warmup: int = 1,
    repeats: int = 5,
    min_sample_s: float = 0.1,
    track_allocations: bool = True,
    on_result: Callable[[BenchResult], None] | None = None,
) -> list[BenchResult]:
    """Run each spec ``warmup`` throwaway times then ``repeats`` timed times.

    When ``min_sample_s > 0`` the best of up to ``CALIBRATION_PROBES``
    probe calls sizes an inner-iteration batch so each timed sample lasts
    at least ``min_sample_s`` (capped at ``MAX_ITERATIONS`` calls);
    recorded values are per-call averages.
    Without batching, a sub-millisecond benchmark's sample is pure
    scheduler jitter.  Pass ``min_sample_s=0`` to time single calls.

    Allocation stats come from one extra pass under tracemalloc *after* the
    timed repeats, so tracer overhead never pollutes the timings.  A
    benchmark that raises is recorded as ``ok=False`` with the error message
    instead of aborting the run.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    if repeats < 1:
        raise ValueError(f"need at least one repeat, got {repeats}")
    if min_sample_s < 0.0:
        raise ValueError(f"min_sample_s must be non-negative, got {min_sample_s}")
    trace = get_trace()
    results: list[BenchResult] = []
    for spec in specs:
        result = BenchResult(name=spec.name, group=spec.group, source=spec.source)
        try:
            iterations = 1
            if min_sample_s > 0.0:
                # Calibration probes are extra, untimed warmup calls.  A
                # single probe can hit a scheduler hiccup and understate the
                # batch size badly, so take the best of up to three — and
                # stop early once two probes agree the function alone covers
                # min_sample_s (one slow probe might just be the hiccup).
                probe = math.inf
                for attempt in range(CALIBRATION_PROBES):
                    t0 = perf_counter()
                    spec.fn()
                    probe = min(probe, perf_counter() - t0)
                    if attempt >= 1 and probe >= min_sample_s:
                        break
                if probe < min_sample_s:
                    iterations = min(
                        MAX_ITERATIONS,
                        max(1, math.ceil(min_sample_s / max(probe, 1e-9))),
                    )
            result.iterations = iterations
            for _ in range(warmup):
                spec.fn()
            for _ in range(repeats):
                c0 = process_time()
                w0 = perf_counter()
                for _ in range(iterations):
                    spec.fn()
                result.wall_s.append((perf_counter() - w0) / iterations)
                result.cpu_s.append((process_time() - c0) / iterations)
            if track_allocations and not tracemalloc.is_tracing():
                tracemalloc.start()
                try:
                    spec.fn()
                    _, peak = tracemalloc.get_traced_memory()
                    result.alloc_peak_bytes = peak
                finally:
                    tracemalloc.stop()
        except Exception as exc:
            result.ok = False
            result.error = f"{type(exc).__name__}: {exc}"
        trace.emit(
            "bench",
            benchmark=spec.name,
            ok=result.ok,
            wall_median_s=result.wall_median,
        )
        if on_result is not None:
            on_result(result)
        results.append(result)
    return results


def _result_doc(result: BenchResult) -> dict[str, Any]:
    return {
        "name": result.name,
        "group": result.group,
        "source": result.source,
        "ok": result.ok,
        "error": result.error,
        "iterations": result.iterations,
        "wall_s": _timing_doc(result.wall_s),
        "cpu_s": _timing_doc(result.cpu_s),
        "alloc": {"peak_bytes": result.alloc_peak_bytes},
    }


def build_artifact(
    results: Sequence[BenchResult],
    *,
    warmup: int,
    repeats: int,
    selection: Sequence[str] = (),
    git_sha: str | None = None,
    created_utc: str | None = None,
) -> dict[str, Any]:
    """Assemble the ``repro.bench/v1`` artifact document."""
    inputs = {
        "selection": list(selection),
        "warmup": warmup,
        "repeats": repeats,
        "benchmarks": [r.name for r in results],
    }
    return {
        **BENCH.envelope(inputs, git_sha=git_sha, created_utc=created_utc),
        "warmup": warmup,
        "repeats": repeats,
        "selection": list(selection),
        "benchmarks": [_result_doc(r) for r in results],
    }


def merge_artifacts(docs: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Pool the timed repeats of several same-suite artifacts into one.

    A baseline recorded from a single run inherits that run's ambient
    machine state; on a shared box the per-call medians can drift tens of
    percent between runs minutes apart.  Pooling the repeats of runs taken
    at different times centres the baseline's medians on typical
    conditions, so the comparison threshold absorbs drift instead of
    anchoring to one lucky (or unlucky) run.

    All artifacts must cover the same benchmark names.  Per benchmark the
    wall/CPU repeats are concatenated and their median/min/mean recomputed;
    the allocation peak is the max across runs.  A benchmark that failed in
    any artifact stays failed in the merge.
    """
    if not docs:
        raise ValueError("need at least one artifact to merge")
    for doc in docs:
        BENCH.validate(doc)
    first = docs[0]
    names = [e["name"] for e in first["benchmarks"]]
    for doc in docs[1:]:
        other = [e["name"] for e in doc["benchmarks"]]
        if sorted(other) != sorted(names):
            raise ValueError(
                "artifacts cover different benchmarks; "
                f"cannot merge {sorted(set(names) ^ set(other))}"
            )
    by_name = [{e["name"]: e for e in doc["benchmarks"]} for doc in docs]
    merged_entries = []
    for name in names:
        entries = [m[name] for m in by_name]
        base = dict(entries[0])
        failed = [e for e in entries if not e["ok"]]
        if failed:
            base.update(ok=False, error=failed[0]["error"])
        else:
            for key in ("wall_s", "cpu_s"):
                pooled: list[float] = []
                for e in entries:
                    pooled.extend(e[key]["repeats"])
                base[key] = _timing_doc(pooled)
            base["iterations"] = max(e["iterations"] for e in entries)
            peaks = [
                e["alloc"]["peak_bytes"]
                for e in entries
                if e["alloc"]["peak_bytes"] is not None
            ]
            base["alloc"] = {"peak_bytes": max(peaks) if peaks else None}
        merged_entries.append(base)
    shas = {doc["git_sha"] for doc in docs}
    repeats = sum(doc.get("repeats", 0) for doc in docs)
    selection = list(first.get("selection", []))
    warmup = first.get("warmup", 0)
    inputs = {
        "selection": selection,
        "warmup": warmup,
        "repeats": repeats,
        "benchmarks": names,
    }
    merged = dict(first)
    merged.update(
        created_utc=max(doc["created_utc"] for doc in docs),
        git_sha=shas.pop() if len(shas) == 1 else "mixed",
        warmup=warmup,
        repeats=repeats,
        selection=selection,
        inputs_hash=inputs_hash(inputs),
        benchmarks=merged_entries,
    )
    return merged

