"""Structured event tracing with span support.

A :class:`TraceLog` is a bounded ring buffer of :class:`TraceEvent` records
— plain events, warnings, and span begin/end pairs — exportable as JSONL.
Like the metrics registry, the process-global default is a no-op
:class:`NullTraceLog`; install a real log with :func:`set_trace` or
:func:`scoped_trace`.

Timestamps come from the log's *clock*.  By default that is wall time
(``time.time``), but :meth:`TraceLog.attach_simulator` switches it to a
:class:`~repro.simulation.engine.Simulator`'s virtual clock so trace
records line up with simulated time — span durations are always measured
on the wall clock (``perf_counter``) since virtual time may stand still
inside a span.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator

__all__ = [
    "TraceEvent",
    "TraceLog",
    "NullTraceLog",
    "get_trace",
    "set_trace",
    "scoped_trace",
]


@dataclass(frozen=True)
class TraceEvent:
    """One trace record."""

    ts: float
    kind: str  # "event" | "warning" | "span_begin" | "span_end"
    name: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {"ts": self.ts, "kind": self.kind, "name": self.name, **self.fields}
        return json.dumps(doc, sort_keys=True, default=str)


class TraceLog:
    """Ring-buffered structured event log."""

    enabled = True

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._emitted = 0
        self._dropped_by_kind: dict[str, int] = {}
        self._span_seq = 0
        self._clock = time.time

    # -- clock ----------------------------------------------------------------

    def attach_simulator(self, simulator) -> None:
        """Timestamp subsequent events with ``simulator.now`` (virtual time)."""
        self._clock = lambda: simulator.now

    def detach_clock(self) -> None:
        """Return to wall-clock timestamps."""
        self._clock = time.time

    @property
    def now(self) -> float:
        return self._clock()

    # -- recording ------------------------------------------------------------

    def emit(self, name: str, *, kind: str = "event", **fields: Any) -> TraceEvent:
        event = TraceEvent(ts=self._clock(), kind=kind, name=name, fields=fields)
        if len(self._events) == self.capacity:
            evicted = self._events[0].kind
            self._dropped_by_kind[evicted] = self._dropped_by_kind.get(evicted, 0) + 1
        self._events.append(event)
        self._emitted += 1
        return event

    def warning(self, name: str, **fields: Any) -> TraceEvent:
        return self.emit(name, kind="warning", **fields)

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[dict[str, Any]]:
        """Record a ``span_begin``/``span_end`` pair around the block.

        Yields a mutable dict; keys added inside the block land on the
        ``span_end`` record (handy for result summaries).  The pair shares a
        ``span`` id so exporters can re-join them, and ``span_end`` carries
        the wall-clock ``duration_s``.
        """
        self._span_seq += 1
        span_id = self._span_seq
        self.emit(name, kind="span_begin", span=span_id, **fields)
        extra: dict[str, Any] = {}
        t0 = perf_counter()
        try:
            yield extra
        finally:
            self.emit(
                name,
                kind="span_end",
                span=span_id,
                duration_s=perf_counter() - t0,
                **{**fields, **extra},
            )

    # -- inspection / export --------------------------------------------------

    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def emitted(self) -> int:
        """Total events ever recorded (>= len() once the ring wraps)."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return self._emitted - len(self._events)

    @property
    def dropped_by_kind(self) -> dict[str, int]:
        """Evicted-event counts broken down by record kind — makes silent
        ring-wrap data loss attributable (e.g. all ``span_end`` gone)."""
        return dict(self._dropped_by_kind)

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self._events)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> dict[str, Any]:
        return {}

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTraceLog:
    """Disabled trace log: recording is a no-op, exports are empty."""

    enabled = False
    capacity = 0

    def attach_simulator(self, simulator) -> None:
        pass

    def detach_clock(self) -> None:
        pass

    def emit(self, name: str, *, kind: str = "event", **fields: Any) -> None:
        return None

    def warning(self, name: str, **fields: Any) -> None:
        return None

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def events(self) -> list[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0

    emitted = 0
    dropped = 0

    @property
    def dropped_by_kind(self) -> dict[str, int]:
        return {}

    def to_jsonl(self) -> str:
        return ""


_NULL_TRACE = NullTraceLog()
_default: TraceLog | NullTraceLog = _NULL_TRACE


def get_trace() -> TraceLog | NullTraceLog:
    """The process-global trace log (no-op unless observability is on)."""
    return _default


def set_trace(trace: TraceLog | NullTraceLog | None) -> TraceLog | NullTraceLog:
    """Install ``trace`` globally (``None`` -> the null log); returns previous."""
    global _default
    previous = _default
    _default = trace if trace is not None else _NULL_TRACE
    return previous


@contextmanager
def scoped_trace(trace: TraceLog | None = None) -> Iterator[TraceLog]:
    """Install a fresh (or given) trace log for the duration of the block."""
    log = trace if trace is not None else TraceLog()
    previous = set_trace(log)
    try:
        yield log
    finally:
        set_trace(previous)
