"""Paper-fidelity expectations: declared per experiment, graded into verdicts.

PR 2's bench harness detects when the reproduction gets *slower*; this
module detects when it stops reproducing the *paper*.  Each experiment
module declares, next to its outputs, the values the paper (or the pinned
reproduction protocol — seed 2009, fast/full horizons) expects its summary
to contain, with explicit tolerances:

    from ..obs import fidelity
    fidelity.declare_expectations(
        "fig12",
        fidelity.Expectation("power_saving_fraction", 0.53, rel_tol=0.05,
                             source="Fig. 12: up to 53% total power saved"),
    )

A checker (:func:`evaluate_summaries`) consumes experiment summaries —
from a fresh run or from the ``<id>.json`` artifacts the run ledger
(:mod:`repro.reporting.ledger`) indexes — and grades every declared metric:

- ``match``  — within the declared tolerance;
- ``drift``  — outside the tolerance but within ``drift_factor`` times it
  (the model moved; a human should look, CI should not page);
- ``fail``   — beyond the drift band, missing, or of the wrong type.

Experiment modules declare at import time, so this half lives with the
instrumentation.  The scoreboard's append-only ``FIDELITY_<date>_<sha>.json``
artifact (schema ``repro.fidelity/v1``) and its table are written by
:mod:`repro.reporting.fidelity`, so accuracy drift is tracked across
commits exactly like performance.  Everything here is stdlib-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "VERDICTS",
    "Expectation",
    "MetricVerdict",
    "Scoreboard",
    "declare_expectations",
    "expectations_for",
    "declared_experiments",
    "check_expectations",
    "evaluate_summaries",
]

#: Per-metric verdicts, best to worst.
VERDICTS = ("match", "drift", "fail")

_OPS = ("approx", "ge", "le", "bool")


@dataclass(frozen=True)
class Expectation:
    """One declared paper-expected value with its tolerance.

    ``op`` semantics:

    - ``approx`` — ``|actual - expected| <= tolerance`` matches;
    - ``ge``     — at least ``expected`` matches (overshooting is fine;
      a shortfall is graded against the tolerance);
    - ``le``     — at most ``expected``, symmetric to ``ge``;
    - ``bool``   — truth values must agree exactly (never drifts).

    ``tolerance`` is ``max(abs_tol, rel_tol * |expected|)``.  Outside the
    tolerance but within ``drift_factor * tolerance`` grades ``drift``;
    beyond that, ``fail``.  With a zero tolerance the drift band is empty
    and any mismatch fails — the right setting for exact integers such as
    Table I server counts.
    """

    metric: str
    expected: float | int | bool
    op: str = "approx"
    abs_tol: float = 0.0
    rel_tol: float = 0.0
    drift_factor: float = 3.0
    source: str = ""
    note: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise ValueError(
                f"tolerances must be non-negative, got abs_tol={self.abs_tol} "
                f"rel_tol={self.rel_tol}"
            )
        if self.drift_factor < 1.0:
            raise ValueError(
                f"drift_factor must be >= 1, got {self.drift_factor}"
            )
        if self.op == "bool" and (self.abs_tol or self.rel_tol):
            raise ValueError("bool expectations take no tolerance")

    @property
    def tolerance(self) -> float:
        if self.op == "bool":
            return 0.0
        return max(self.abs_tol, self.rel_tol * abs(float(self.expected)))

    def check(self, actual: Any) -> tuple[str, str]:
        """Grade ``actual``; returns ``(verdict, detail)``."""
        if actual is None:
            return "fail", "metric missing from summary"
        if self.op == "bool":
            if not isinstance(actual, bool):
                return "fail", f"expected a bool, got {type(actual).__name__}"
            if actual == bool(self.expected):
                return "match", "truth value agrees"
            return "fail", f"expected {bool(self.expected)}, got {actual}"
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return "fail", f"expected a number, got {type(actual).__name__}"
        actual = float(actual)
        expected = float(self.expected)
        if actual != actual:  # NaN never matches anything
            return "fail", "actual is NaN"
        if self.op == "ge":
            deviation = expected - actual  # only a shortfall counts
        elif self.op == "le":
            deviation = actual - expected  # only an excess counts
        else:
            deviation = abs(actual - expected)
        tol = self.tolerance
        if deviation <= tol:
            return "match", f"deviation {deviation:.6g} <= tol {tol:.6g}"
        if deviation <= self.drift_factor * tol:
            return (
                "drift",
                f"deviation {deviation:.6g} within {self.drift_factor:g}x "
                f"tol {tol:.6g}",
            )
        return "fail", f"deviation {deviation:.6g} > {self.drift_factor:g}x tol {tol:.6g}"


# -- declaration registry ------------------------------------------------------

_EXPECTATIONS: dict[str, tuple[Expectation, ...]] = {}


def declare_expectations(experiment: str, *expectations: Expectation) -> None:
    """Register ``experiment``'s expectations (once, at module import)."""
    if not expectations:
        raise ValueError(f"experiment {experiment!r} declared no expectations")
    if experiment in _EXPECTATIONS:
        raise ValueError(f"expectations for {experiment!r} already declared")
    metrics = [e.metric for e in expectations]
    if len(set(metrics)) != len(metrics):
        raise ValueError(f"duplicate metric expectations for {experiment!r}")
    _EXPECTATIONS[experiment] = tuple(expectations)


def expectations_for(experiment: str) -> tuple[Expectation, ...]:
    """Declared expectations for one experiment (empty if none)."""
    return _EXPECTATIONS.get(experiment, ())


def declared_experiments() -> list[str]:
    """Sorted names of every experiment with declared expectations."""
    return sorted(_EXPECTATIONS)


# -- evaluation ----------------------------------------------------------------


@dataclass(frozen=True)
class MetricVerdict:
    """One graded expectation."""

    experiment: str
    metric: str
    verdict: str
    expected: float | int | bool
    actual: Any
    op: str
    tolerance: float
    detail: str
    source: str = ""
    note: str = ""


@dataclass(frozen=True)
class Scoreboard:
    """All verdicts of one fidelity evaluation."""

    verdicts: tuple[MetricVerdict, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for v in self.verdicts:
            out[v.verdict] += 1
        return out

    @property
    def fails(self) -> tuple[MetricVerdict, ...]:
        return tuple(v for v in self.verdicts if v.verdict == "fail")

    @property
    def drifts(self) -> tuple[MetricVerdict, ...]:
        return tuple(v for v in self.verdicts if v.verdict == "drift")

    @property
    def overall(self) -> str:
        """Worst verdict present: ``fail`` > ``drift`` > ``match``."""
        counts = self.counts
        if counts["fail"]:
            return "fail"
        if counts["drift"]:
            return "drift"
        return "match"

    @property
    def experiments(self) -> list[str]:
        return sorted({v.experiment for v in self.verdicts})


def check_expectations(
    experiment: str,
    summary: Mapping[str, Any] | None,
    expectations: Iterable[Expectation],
) -> list[MetricVerdict]:
    """Grade one experiment's summary against explicit expectations."""
    verdicts = []
    for exp in expectations:
        actual = None if summary is None else summary.get(exp.metric)
        verdict, detail = exp.check(actual)
        if summary is None:
            detail = "experiment summary missing"
        verdicts.append(
            MetricVerdict(
                experiment=experiment,
                metric=exp.metric,
                verdict=verdict,
                expected=exp.expected,
                actual=actual,
                op=exp.op,
                tolerance=exp.tolerance,
                detail=detail,
                source=exp.source,
                note=exp.note,
            )
        )
    return verdicts


def evaluate_summaries(
    summaries: Mapping[str, Mapping[str, Any]],
    experiments: Sequence[str] | None = None,
) -> Scoreboard:
    """Grade every declared expectation against ``summaries``.

    ``summaries`` maps experiment name -> summary mapping.  By default only
    declared experiments *present* in ``summaries`` are graded (running a
    subset must not fail the absent rest); pass ``experiments`` explicitly
    to demand specific ones — a demanded-but-absent experiment fails all
    its expectations.
    """
    names = (
        [n for n in declared_experiments() if n in summaries]
        if experiments is None
        else list(experiments)
    )
    verdicts: list[MetricVerdict] = []
    for name in names:
        verdicts.extend(
            check_expectations(name, summaries.get(name), expectations_for(name))
        )
    return Scoreboard(verdicts=tuple(verdicts))

