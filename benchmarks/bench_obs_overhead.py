"""Overhead guard for the observability layer.

The contract of :mod:`repro.obs` is that instrumentation hooks are
zero-cost when disabled: every configuration runs the engine's one event
loop, and instrumentation adds no per-event work to it.  This bench
measures the engine's event-chain throughput (same shape as
``bench_simulation_engine.test_event_loop_throughput``) in four
configurations:

- **bare** — a local replica of the engine loop with no instrumentation at
  all (the pre-observability baseline);
- **off** — the real :class:`~repro.simulation.engine.Simulator` under the
  default null registry;
- **on** — the real engine under an enabled registry;
- **telemetry** — the real engine under an enabled telemetry bus (the
  virtual-time series recorder added with the observability PR).

and asserts the *off* configuration stays within 5% of *bare*, and the
*on* and *telemetry* configurations each within 15% of *off*.  Timing
uses min-of-repeats (the standard low-noise estimator); the assertions
retry a few times to ride out scheduler jitter on shared CI machines.
"""

from __future__ import annotations

import heapq
import itertools
import timeit
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import TelemetryBus, scoped_bus, scoped_registry
from repro.simulation.engine import Simulator

CHAIN_LENGTH = 20_000
REPEATS = 7
MAX_OVERHEAD = 0.05
MAX_TELEMETRY_OVERHEAD = 0.15
MAX_REGISTRY_OVERHEAD = 0.15
ATTEMPTS = 5


@dataclass(order=True)
class _BareEvent:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class BareSimulator:
    """The seed engine, verbatim: heap loop with no observability hooks."""

    def __init__(self) -> None:
        self._heap: list[_BareEvent] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        return self._now

    def schedule_at(self, time: float, callback: Callable[[], None]) -> _BareEvent:
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past: {time} < now={self._now}"
            )
        event = _BareEvent(time=time, seq=next(self._seq), callback=callback)
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> _BareEvent:
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def step(self) -> bool:
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            return True
        return False

    def run(self, until: float | None = None) -> None:
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        try:
            while self._heap:
                if until is not None and self._heap[0].time > until:
                    break
                self.step()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False


def _chain(sim_factory: Callable[[], object]) -> int:
    sim = sim_factory()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < CHAIN_LENGTH:
            sim.schedule_in(0.001, tick)

    sim.schedule_at(0.0, tick)
    sim.run()
    return count[0]


def _best_time(sim_factory: Callable[[], object]) -> float:
    timer = timeit.Timer(lambda: _chain(sim_factory))
    return min(timer.repeat(repeat=REPEATS, number=1))


def measure() -> dict[str, float]:
    """Best-of-N seconds per 20k-event chain for each configuration."""
    bare = _best_time(BareSimulator)
    off = _best_time(Simulator)
    with scoped_registry():
        on = _best_time(Simulator)
    with scoped_bus(TelemetryBus(bucket_width=1.0, max_buckets=256)):
        telemetry = _best_time(Simulator)
    return {"bare": bare, "off": off, "on": on, "telemetry": telemetry}


def test_disabled_observability_overhead_under_5pct():
    worst = None
    for _ in range(ATTEMPTS):
        times = measure()
        overhead = times["off"] / times["bare"] - 1.0
        worst = overhead if worst is None else min(worst, overhead)
        if worst <= MAX_OVERHEAD:
            break
    assert worst <= MAX_OVERHEAD, (
        f"disabled-observability engine is {100 * worst:.1f}% slower than the "
        f"bare loop (limit {100 * MAX_OVERHEAD:.0f}%)"
    )


def test_telemetry_overhead_under_15pct():
    worst = None
    for _ in range(ATTEMPTS):
        times = measure()
        overhead = times["telemetry"] / times["off"] - 1.0
        worst = overhead if worst is None else min(worst, overhead)
        if worst <= MAX_TELEMETRY_OVERHEAD:
            break
    assert worst <= MAX_TELEMETRY_OVERHEAD, (
        f"telemetry-enabled engine is {100 * worst:.1f}% slower than the "
        f"disabled configuration (limit {100 * MAX_TELEMETRY_OVERHEAD:.0f}%)"
    )


def test_registry_overhead_under_15pct():
    worst = None
    for _ in range(ATTEMPTS):
        times = measure()
        overhead = times["on"] / times["off"] - 1.0
        worst = overhead if worst is None else min(worst, overhead)
        if worst <= MAX_REGISTRY_OVERHEAD:
            break
    assert worst <= MAX_REGISTRY_OVERHEAD, (
        f"registry-enabled engine is {100 * worst:.1f}% slower than the "
        f"disabled configuration (limit {100 * MAX_REGISTRY_OVERHEAD:.0f}%)"
    )


def test_chains_complete_in_every_configuration():
    assert _chain(BareSimulator) == CHAIN_LENGTH
    assert _chain(Simulator) == CHAIN_LENGTH
    with scoped_registry() as registry:
        assert _chain(Simulator) == CHAIN_LENGTH
        executed = registry.counter("sim_events_executed_total")
        assert executed.value == CHAIN_LENGTH
    with scoped_bus(TelemetryBus(bucket_width=1.0)) as bus:
        assert _chain(Simulator) == CHAIN_LENGTH
        recorded = sum(
            s.total for s in bus.series() if s.name == "engine.events"
        )
        assert recorded == CHAIN_LENGTH


if __name__ == "__main__":  # pragma: no cover - manual reporting entry point
    times = measure()
    bare, off, on = times["bare"], times["off"], times["on"]
    telemetry = times["telemetry"]
    print(f"bare engine        : {1e3 * bare:8.2f} ms / {CHAIN_LENGTH} events")
    print(
        f"instrumented (off) : {1e3 * off:8.2f} ms  "
        f"({100 * (off / bare - 1):+.1f}% vs bare)"
    )
    print(
        f"instrumented (on)  : {1e3 * on:8.2f} ms  "
        f"({100 * (on / off - 1):+.1f}% vs off)"
    )
    print(
        f"telemetry bus (on) : {1e3 * telemetry:8.2f} ms  "
        f"({100 * (telemetry / off - 1):+.1f}% vs off)"
    )
