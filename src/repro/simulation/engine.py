"""Minimal discrete-event simulation engine.

SimPy is not available in this environment, so the data-center simulation
runs on this small, dependency-free engine: a time-ordered heap of events,
each an opaque callback.  Determinism is guaranteed by a monotonically
increasing sequence number breaking time ties in insertion order, so runs
with a fixed RNG seed are exactly reproducible — a property the statistical
validation tests rely on.

Observability: every configuration runs the same loop in
:meth:`Simulator.run`.  Executed and skipped events are plain counts — the
executed count is derived as scheduled − queued − skipped, so the loop
keeps no per-event counter.  When a real metrics registry is installed
(see :mod:`repro.obs`) *before* the simulator is constructed, those counts,
the live heap depth and the virtual time are published to it when ``run``
returns.  When a telemetry bus is installed, the ``engine.events`` series
receives each bucket's counts when the head event crosses the bucket's
end; that check shares the one compare per event that ``run`` already
makes against ``until``, so the disabled path pays nothing for it
(guarded by ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

from ..obs import get_bus, get_registry

__all__ = ["Simulator", "ScheduledEvent"]


@dataclass(order=True, slots=True)
class ScheduledEvent:
    """Heap entry: ordered by (time, sequence)."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    # Owning simulator while the event is queued; cleared when it executes,
    # so a late cancel() of an already-fired event stays a harmless flag.
    sim: "Simulator | None" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._dead += 1


class Simulator:
    """Event loop with virtual time."""

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        # Events ever scheduled (also the FIFO tie-break sequence) and
        # cancelled events discarded on pop; see _counts().
        self._scheduled = 0
        self._skipped = 0
        self._now = 0.0
        self._running = False
        # Cancelled events still sitting in the heap; pending is then the
        # O(1) difference len(heap) - dead instead of an O(n) scan.
        self._dead = 0
        self._instruments = None
        registry = get_registry()
        if registry.enabled:
            self._instruments = (
                registry.counter(
                    "sim_events_executed_total", help="events popped and run"
                ),
                registry.counter(
                    "sim_events_skipped_total",
                    help="cancelled events discarded on pop",
                ),
                registry.gauge(
                    "sim_pending_events", help="live (uncancelled) events queued"
                ),
                registry.gauge(
                    "sim_virtual_time", help="current virtual time of the simulator"
                ),
            )
        self._series = None
        bus = get_bus()
        if bus.enabled:
            bus.attach_simulator(self)
            self._series = (
                bus.counter("engine.events", {"kind": "executed"}),
                bus.counter("engine.events", {"kind": "skipped"}),
            )
            # Time keying the open engine.events bucket, and the counts
            # already added to the series.
            self._bucket_t = 0.0
            self._flushed = (0, 0)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past: {time} < now={self._now}"
            )
        seq = self._scheduled
        self._scheduled = seq + 1
        event = ScheduledEvent(time=time, seq=seq, callback=callback, sim=self)
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` after a relative ``delay``."""
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def run(self, until: float | None = None) -> None:
        """Run events until the heap drains or virtual time passes ``until``.

        With ``until`` given, events scheduled at exactly ``until`` still
        execute; the clock is then advanced to ``until`` even if the last
        event fired earlier (so time-weighted statistics close correctly).
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        stop = math.inf if until is None else until
        # The loop's one compare: a head time at or past ``limit`` is either
        # beyond ``until`` or, with telemetry on, the first event of a new
        # engine.events bucket (-inf opens the first bucket).
        end = math.nextafter(stop, math.inf)
        limit = end if self._series is None else -math.inf
        before = self._counts()
        try:
            while heap:
                event = heap[0]
                t = event.time
                if t >= limit:
                    if t > stop:
                        break
                    if self._series is not None:
                        limit = min(self._open_bucket(t), end)
                pop(heap)
                if event.cancelled:
                    self._dead -= 1
                    self._skipped += 1
                    continue
                event.sim = None
                self._now = t
                event.callback()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self._publish(before)

    def _counts(self) -> tuple[int, int]:
        """(executed, skipped) events so far: every scheduled event is
        either still queued, discarded as cancelled, or was executed."""
        return self._scheduled - len(self._heap) - self._skipped, self._skipped

    def _flush_bucket(self) -> None:
        """Add the counts since the last flush to the open bucket."""
        counts = self._counts()
        for series, now, done in zip(self._series, counts, self._flushed):
            if now > done:
                series.add(self._bucket_t, float(now - done))
        self._flushed = counts

    def _open_bucket(self, t: float) -> float:
        """Flush the bucket just left, open the one holding ``t`` and
        return its end."""
        self._flush_bucket()
        self._bucket_t = t
        width = self._series[0].bucket_width
        return int(t / width) * width + width

    def _publish(self, before: tuple[int, int]) -> None:
        """Hand this run's counts to the bus and the registry."""
        if self._series is not None:
            self._flush_bucket()
        if self._instruments is not None:
            executed_c, skipped_c, pending_g, now_g = self._instruments
            executed, skipped = self._counts()
            executed_c.inc(executed - before[0])
            skipped_c.inc(skipped - before[1])
            pending_g.set(self.pending)
            now_g.set(self._now)

    @property
    def pending(self) -> int:
        """Number of live events still queued (O(1): cancellations are
        counted as they happen instead of scanning the heap)."""
        return len(self._heap) - self._dead
