"""SLO tracking for the planner service: latency targets + error budget.

The tracker follows the SRE burn-rate formulation: with an availability
target ``A`` the error budget is ``1 - A``; the **burn rate** is the
observed error fraction over a rolling request window divided by that
budget.  A burn rate of 1.0 spends the budget exactly as fast as the SLO
allows; sustained rates above ``burn_threshold`` flip the tracker into a
*burning* state (after ``debounce`` consecutive breaches, with a
hysteresis ``burn_clear`` threshold on the way out).  The burning state is
an :class:`~repro.obs.alarms.AlarmState` stepped once per request over
the tracker's ``slo-burn-rate`` :class:`~repro.obs.alarms.AlarmRule`
(which also validates the band).  The service surfaces the burning state
through ``GET /readyz`` so load balancers shed traffic while the budget
is being spent too fast.

The burn-rate signal is also recorded on a real-time
:class:`~repro.obs.timeseries.TelemetryBus` gauge (bucketed on elapsed
seconds since tracker start) and evaluated by the existing
:class:`~repro.obs.alarms.AlarmManager`, so SLO incidents emit the same
``kind="alarm"`` trace events and ``alarms_total`` counters as the
simulation-side overload alarms — one alarm vocabulary across the repo.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Sequence

from ..obs.alarms import AlarmEvent, AlarmManager, AlarmRule, AlarmState
from ..obs.timeseries import TelemetryBus

__all__ = ["SLOTracker", "percentile"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (inclusive) over pre-sorted values.

    ``q`` is in [0, 100].  Empty input returns ``nan``: no samples, no
    latency to report (the SLO tracker and the report's Service section
    share this one definition).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not sorted_values:
        return math.nan
    if q == 0.0:
        return sorted_values[0]
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[rank - 1]


class SLOTracker:
    """Rolling-window SLO attainment + error-budget burn for one service.

    Thread-safe: handler threads call :meth:`record` concurrently.  Time
    is *elapsed seconds since tracker construction* supplied by the
    caller (the app layer uses a monotonic clock), which keeps the math
    deterministic under test — no hidden clock reads.
    """

    def __init__(
        self,
        *,
        target_p99_ms: float = 50.0,
        availability_target: float = 0.999,
        window: int = 2048,
        burn_threshold: float = 2.0,
        burn_clear: float = 1.0,
        debounce: int = 3,
        bucket_width: float = 1.0,
        max_buckets: int = 8192,
    ) -> None:
        if target_p99_ms <= 0.0:
            raise ValueError(f"target_p99_ms must be positive, got {target_p99_ms}")
        if not 0.0 < availability_target < 1.0:
            raise ValueError(
                f"availability_target must be in (0, 1), got {availability_target}"
            )
        if window < 1:
            raise ValueError(f"window must be >= 1 requests, got {window}")
        self.target_p99_ms = float(target_p99_ms)
        self.availability_target = float(availability_target)
        self.error_budget = 1.0 - self.availability_target
        self.burn_threshold = float(burn_threshold)
        self.burn_clear = float(burn_clear)
        self.debounce = int(debounce)
        self._lock = threading.Lock()
        self._window: deque[tuple[bool, float]] = deque(maxlen=int(window))
        self._window_errors = 0
        self._total = 0
        self._errors = 0
        self._last_t = 0.0
        self.bus = TelemetryBus(bucket_width=bucket_width, max_buckets=max_buckets)
        self._burn_gauge = self.bus.gauge("slo_burn_rate")
        rule = AlarmRule(
            "slo-burn-rate",
            "slo_burn_rate",
            "overload",
            threshold=self.burn_threshold,
            clear=self.burn_clear,
            window=1,
            debounce=self.debounce,
        )
        self._burn_state = AlarmState(rule)
        self.alarm_manager = AlarmManager([rule])
        self._alarms_emitted = 0

    # -- recording -------------------------------------------------------------

    def record(self, ok: bool, latency_s: float, t: float) -> None:
        """One finished request: success flag, latency, elapsed seconds."""
        with self._lock:
            if len(self._window) == self._window.maxlen:
                oldest_ok, _ = self._window[0]
                if not oldest_ok:
                    self._window_errors -= 1
            self._window.append((ok, latency_s * 1000.0))
            self._total += 1
            if not ok:
                self._window_errors += 1
                self._errors += 1
            burn = self._burn_rate_locked()
            # Gauge time must not run backwards; concurrent recorders may
            # observe interleaved clocks, so clamp to the furthest point.
            self._last_t = max(self._last_t, float(t))
            self._burn_gauge.set(self._last_t, burn)
            self._burn_state.step(burn)

    def _burn_rate_locked(self) -> float:
        if not self._window:
            return 0.0
        error_fraction = self._window_errors / len(self._window)
        return error_fraction / self.error_budget

    # -- inspection ------------------------------------------------------------

    @property
    def burn_rate(self) -> float:
        with self._lock:
            return self._burn_rate_locked()

    @property
    def burning(self) -> bool:
        with self._lock:
            return self._burn_state.firing

    @property
    def ready(self) -> bool:
        """False while the error budget is burning too fast."""
        return not self.burning

    def snapshot(self) -> dict[str, Any]:
        """JSON-able SLO attainment snapshot for ``GET /status``."""
        with self._lock:
            latencies = sorted(ms for _, ms in self._window)
            window_n = len(self._window)
            window_errors = self._window_errors
            burn = self._burn_rate_locked()
            burning = self._burn_state.firing
            total, errors = self._total, self._errors
        p50 = percentile(latencies, 50.0)
        p95 = percentile(latencies, 95.0)
        p99 = percentile(latencies, 99.0)
        availability = 1.0 - window_errors / window_n if window_n else 1.0
        return {
            "target_p99_ms": self.target_p99_ms,
            "availability_target": self.availability_target,
            "window_requests": window_n,
            "window_errors": window_errors,
            "total_requests": total,
            "total_errors": errors,
            "p50_ms": None if math.isnan(p50) else round(p50, 3),
            "p95_ms": None if math.isnan(p95) else round(p95, 3),
            "p99_ms": None if math.isnan(p99) else round(p99, 3),
            "availability": round(availability, 6),
            "p99_met": bool(math.isnan(p99) or p99 <= self.target_p99_ms),
            "availability_met": availability >= self.availability_target,
            "burn_rate": round(burn, 4),
            "burning": burning,
            "ready": not burning,
        }

    # -- alarms ----------------------------------------------------------------

    def evaluate_alarms(self) -> list[AlarmEvent]:
        """Emit and return alarm transitions not yet published.

        The alarm walk is deterministic over the recorded gauge, so the
        event list grows append-only as traffic arrives; we remember how
        many were already emitted and publish only the suffix.  (A bus
        decimation can in principle merge away a short transition before
        it is polled — acceptable for an operational signal; the
        authoritative burning state lives in :meth:`record`.)
        """
        with self._lock:
            events = self.alarm_manager.evaluate(self.bus)
            fresh = events[self._alarms_emitted :]
            self._alarms_emitted = len(events)
        return self.alarm_manager.emit(fresh)

    def finalize(self, t: float) -> list[AlarmEvent]:
        """Close the gauge at shutdown; emit + return open-at-exit alarms."""
        with self._lock:
            self.bus.finalize(max(self._last_t, float(t)))
            open_events = self.alarm_manager.open_alarms(self.bus)
        return self.alarm_manager.emit(open_events)
