"""Sliding-window threshold alarms over telemetry series.

Modeled on the threshold/alarm managers of OpenStack Neat: a host is
declared *overloaded* or *underloaded* when the windowed mean of a
utilization signal crosses a threshold, with two guards against flapping —

- **hysteresis**: the alarm clears at a separate ``clear`` threshold on
  the safe side of the firing threshold, so a signal oscillating around
  one level does not fire/clear every bucket;
- **debounce**: the breach must persist for ``debounce`` consecutive
  windows before the alarm fires.

One incremental state machine, :class:`AlarmState`, implements both guards
plus the trailing-window mean; it is fed one value at a time and reports
``"fire"``/``"clear"`` transitions.  Every anti-flap decision in the repo
steps it: :class:`AlarmManager` folds it over the bucket series recorded
by a :class:`~repro.obs.timeseries.TelemetryBus` (a deterministic pass over
already-deterministic data, so alarm event streams inherit the repo's
bit-identity-across-``--jobs`` contract), the consolidation controller
steps it once per control tick, the service SLO tracker once per request,
and the dynamic planner's shrink hold once per period.  Events are emitted
as structured trace records and metrics-registry counters, and serialise
as ``kind="alarm"`` documents into the ``repro.timeseries/v1`` JSONL
stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs.registry import get_registry
from repro.obs.timeseries import TIMESERIES_SCHEMA, TelemetryBus
from repro.obs.trace import get_trace

__all__ = ["AlarmRule", "AlarmState", "AlarmEvent", "AlarmManager"]

_KINDS = ("overload", "underload")


@dataclass(frozen=True)
class AlarmRule:
    """One threshold rule against one telemetry series family.

    ``kind="overload"`` breaches when the windowed mean rises to
    ``threshold`` or above and clears once it falls below ``clear``;
    ``kind="underload"`` mirrors this downward.  ``clear`` defaults to
    ``threshold`` (no hysteresis band).  ``labels`` is a subset match:
    the rule applies to every series named ``series`` whose label set
    contains all the given pairs.
    """

    name: str
    series: str
    kind: str
    threshold: float
    clear: float | None = None
    window: int = 1
    debounce: int = 1
    labels: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alarm rule name must be non-empty")
        if self.kind not in _KINDS:
            raise ValueError(f"alarm kind must be one of {_KINDS}, got {self.kind!r}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1 buckets, got {self.window}")
        if self.debounce < 1:
            raise ValueError(f"debounce must be >= 1 windows, got {self.debounce}")
        clear = self.threshold if self.clear is None else self.clear
        if self.kind == "overload" and clear > self.threshold:
            raise ValueError(
                f"overload clear threshold {clear} must not exceed "
                f"firing threshold {self.threshold}"
            )
        if self.kind == "underload" and clear < self.threshold:
            raise ValueError(
                f"underload clear threshold {clear} must not undercut "
                f"firing threshold {self.threshold}"
            )

    @property
    def clear_threshold(self) -> float:
        return self.threshold if self.clear is None else self.clear

    def matches(self, name: str, labels: Mapping[str, str]) -> bool:
        if name != self.series:
            return False
        return all(labels.get(k) == v for k, v in self.labels.items())

    def _breaches(self, value: float) -> bool:
        if self.kind == "overload":
            return value >= self.threshold
        return value <= self.threshold

    def _clears(self, value: float) -> bool:
        if self.kind == "overload":
            return value < self.clear_threshold
        return value > self.clear_threshold


@dataclass(frozen=True)
class AlarmEvent:
    """One fire/clear transition at a virtual-time bucket boundary.

    ``state="open_at_exit"`` marks an alarm that was still firing when the
    run (or server) shut down — without it, an alarm whose clear never
    arrives vanishes from the record entirely (see
    :meth:`AlarmManager.open_alarms`).
    """

    rule: str
    kind: str
    state: str  # "fire" | "clear" | "open_at_exit"
    t: float
    value: float
    threshold: float
    series: str
    labels: Mapping[str, str]

    def to_doc(self) -> dict[str, Any]:
        return {
            "schema": TIMESERIES_SCHEMA,
            "kind": "alarm",
            "rule": self.rule,
            "alarm_kind": self.kind,
            "state": self.state,
            "t": round(self.t, 9),
            "value": round(self.value, 9),
            "threshold": self.threshold,
            "series": self.series,
            "labels": dict(self.labels),
        }


class AlarmState:
    """Incremental anti-flap evaluation of one :class:`AlarmRule`.

    :meth:`step` takes the next value (one bucket, tick or request) and
    keeps three pieces of state: the trailing-window mean (shorter windows
    at the start average what exists, so early breaches are not masked),
    the debounce streak of consecutive breaching means while quiet, and
    the firing flag, which only a mean past the hysteresis ``clear``
    threshold (or :meth:`reset`) lowers.
    """

    __slots__ = ("rule", "firing", "mean", "_recent", "_breach_run")

    def __init__(self, rule: AlarmRule) -> None:
        self.rule = rule
        self._recent: deque[float] = deque(maxlen=rule.window)
        self.reset()

    def reset(self) -> None:
        """Forget everything: quiet, no streak, empty window."""
        self._recent.clear()
        self._breach_run = 0
        self.firing = False
        self.mean = 0.0

    def step(self, value: float) -> str | None:
        """Feed one value; returns ``"fire"``, ``"clear"`` or ``None``."""
        recent = self._recent
        recent.append(value)
        self.mean = mean = sum(recent) / len(recent)
        rule = self.rule
        if not self.firing:
            self._breach_run = self._breach_run + 1 if rule._breaches(mean) else 0
            if self._breach_run >= rule.debounce:
                self.firing = True
                self._breach_run = 0
                return "fire"
        elif rule._clears(mean):
            self.firing = False
            return "clear"
        return None

    def event(
        self, state: str, t: float, series: str, labels: Mapping[str, str]
    ) -> AlarmEvent:
        """An :class:`AlarmEvent` for ``state`` at ``t`` valued at the
        current mean (clears report the clear threshold they crossed)."""
        rule = self.rule
        return AlarmEvent(
            rule=rule.name, kind=rule.kind, state=state, t=t, value=self.mean,
            threshold=rule.clear_threshold if state == "clear" else rule.threshold,
            series=series, labels=labels,
        )


def _order(event: AlarmEvent) -> tuple:
    return (event.t, event.rule, event.series, sorted(event.labels.items()))


class AlarmManager:
    """Evaluate a rule set against a bus and emit structured events."""

    def __init__(self, rules: Iterable[AlarmRule]) -> None:
        self.rules = tuple(rules)
        names = [r.name for r in self.rules]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate alarm rule names: {sorted(dupes)}")

    def fold(
        self, bus: TelemetryBus
    ) -> tuple[list[AlarmEvent], list[AlarmEvent]]:
        """Fold an :class:`AlarmState` over every (rule, matching series).

        Returns ``(transitions, open_at_exit)``.  Each decision is stamped
        at its bucket's end.  ``open_at_exit`` holds one
        ``state="open_at_exit"`` event per pair still firing after the
        last bucket, stamped at the final bucket boundary, so runs that end
        mid-incident leave a record instead of vanishing silently.  Both
        lists are sorted by ``(t, rule, series-labels)``.
        """
        events: list[AlarmEvent] = []
        open_events: list[AlarmEvent] = []
        for rule in self.rules:
            for series in bus.series():
                labels = dict(series.labels)
                if not rule.matches(series.name, labels):
                    continue
                state = AlarmState(rule)
                width = series.bucket_width
                t = 0.0
                for i, value in enumerate(series.values()):
                    t = (i + 1) * width
                    change = state.step(value)
                    if change is not None:
                        events.append(state.event(change, t, series.name, labels))
                if state.firing:
                    open_events.append(
                        state.event("open_at_exit", t, series.name, labels)
                    )
        return sorted(events, key=_order), sorted(open_events, key=_order)

    def evaluate(self, bus: TelemetryBus) -> list[AlarmEvent]:
        """Fire/clear transitions of :meth:`fold`."""
        return self.fold(bus)[0]

    def open_alarms(self, bus: TelemetryBus) -> list[AlarmEvent]:
        """Open-at-exit events of :meth:`fold`; call at shutdown."""
        return self.fold(bus)[1]

    def emit(self, events: Iterable[AlarmEvent]) -> list[AlarmEvent]:
        """Publish events to the active trace log and metrics registry.

        Uses the *current* process-global instruments (not construct-time
        bound: alarm evaluation is a post-run analysis step, not a DES
        hot path).  Returns the events for chaining.
        """
        events = list(events)
        trace = get_trace()
        registry = get_registry()
        for event in events:
            if event.state == "open_at_exit":
                # Open-at-exit is a shutdown diagnostic, not a transition:
                # it gets a warning-kind event under a fixed name so log
                # scrapes for unresolved incidents have one thing to grep.
                trace.emit(
                    "alarm_open_at_exit",
                    kind="warning",
                    rule=event.rule,
                    alarm_kind=event.kind,
                    t=event.t,
                    value=round(event.value, 6),
                    threshold=event.threshold,
                    series=event.series,
                    **{f"label_{k}": v for k, v in sorted(event.labels.items())},
                )
            else:
                trace.emit(
                    event.rule,
                    kind="alarm",
                    alarm_kind=event.kind,
                    state=event.state,
                    t=event.t,
                    value=round(event.value, 6),
                    threshold=event.threshold,
                    series=event.series,
                    **{f"label_{k}": v for k, v in sorted(event.labels.items())},
                )
            registry.counter(
                "alarms_total",
                help="threshold alarm transitions",
                labels={"rule": event.rule, "state": event.state},
            ).inc()
        return events

    def summarize(self, events: Iterable[AlarmEvent]) -> dict[str, int]:
        """Count fires per alarm kind (+ clears, open-at-exit) — golden-pinnable."""
        counts = {
            "overload_fires": 0,
            "underload_fires": 0,
            "clears": 0,
            "open_at_exit": 0,
        }
        for event in events:
            if event.state == "clear":
                counts["clears"] += 1
            elif event.state == "open_at_exit":
                counts["open_at_exit"] += 1
            elif event.kind == "overload":
                counts["overload_fires"] += 1
            else:
                counts["underload_fires"] += 1
        return counts
