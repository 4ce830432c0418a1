"""Simulated electric parameter tester (the paper's power measurement rig).

The paper measures fleet power "by an electric parameter tester, which
measures the power consumed by one or more servers switching in it".  Our
substitute samples :class:`~repro.cluster.pool.ServerPool` draw over a
simulated run and integrates it into energy, separating the idle baseline
from the workload-attributed remainder — exactly the decomposition behind
Figs. 12 and 13.

Platform effects the paper measured but could not explain (Xen idling 9%
lower than Linux; workload power 30% lower on consolidated Xen) are applied
by wrapping the pool's power models, not by post-hoc arithmetic, so the
integration path is identical for both platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.inputs import ResourceKind
from ..core.power import ServerPowerModel
from .pool import ServerPool

__all__ = ["EnergyReading", "PowerMeter", "apply_platform_effect"]


@dataclass(frozen=True)
class EnergyReading:
    """Integrated measurement over one metering window."""

    duration: float
    total_energy: float       # watt-seconds (joules)
    idle_energy: float        # what the same powered-on fleet would draw idle
    samples: int

    def __post_init__(self) -> None:
        if self.duration < 0.0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")
        if self.samples < 0:
            raise ValueError(f"samples must be non-negative, got {self.samples}")

    @property
    def mean_power(self) -> float:
        """Average draw in watts over the window."""
        if self.duration == 0.0:
            return 0.0
        return self.total_energy / self.duration

    @property
    def workload_energy(self) -> float:
        """Energy attributable to the workload (total minus idle baseline).

        This is the quantity Fig. 13 plots after "taking out the power
        consumed by idle servers".
        """
        return self.total_energy - self.idle_energy

    @property
    def busy_over_idle(self) -> float:
        """Fractional increase of measured draw over the idle baseline.

        The paper's Fig. 12 observation: hosting the services raises draw by
        at most ~17% over the same servers idling.
        """
        if self.idle_energy == 0.0:
            return 0.0
        return self.total_energy / self.idle_energy - 1.0


class PowerMeter:
    """Integrates a pool's power draw across explicit samples.

    The discrete-event simulation calls :meth:`sample` whenever fleet
    utilization changes (piecewise-constant draw makes trapezoidal and
    rectangular integration coincide); batch experiments can instead call
    :meth:`integrate_profile` with a utilization time-series.
    """

    def __init__(self, pool: ServerPool):
        self.pool = pool
        self.reset()

    def reset(self) -> None:
        self._last_time: float | None = None
        self._total = 0.0
        self._idle = 0.0
        self._samples = 0

    def sample(self, time: float) -> None:
        """Record that the pool's *current* state held until ``time``.

        The first call only establishes the window start.  Draw between two
        samples is taken from the pool state at the *first* of the two
        (left-continuous step function), so callers should sample *before*
        mutating utilization.
        """
        if self._last_time is None:
            self._last_time = time
            self._window_start = time
            self._draw = self.pool.total_draw()
            self._idle_draw = self.pool.total_idle_draw()
            self._samples = 1
            return
        if time < self._last_time:
            raise ValueError(
                f"samples must be time-ordered: {time} < {self._last_time}"
            )
        dt = time - self._last_time
        self._total += self._draw * dt
        self._idle += self._idle_draw * dt
        self._last_time = time
        self._draw = self.pool.total_draw()
        self._idle_draw = self.pool.total_idle_draw()
        self._samples += 1

    def reading(self) -> EnergyReading:
        """Close the window and return the integrated measurement."""
        if self._last_time is None:
            return EnergyReading(duration=0.0, total_energy=0.0, idle_energy=0.0, samples=0)
        return EnergyReading(
            duration=self._last_time - self._window_start,
            total_energy=self._total,
            idle_energy=self._idle,
            samples=self._samples,
        )

    def integrate_profile(
        self, times: np.ndarray, utilizations: np.ndarray, resource=None
    ) -> EnergyReading:
        """Meter a utilization time-series applied uniformly to the pool.

        ``times`` are sample instants (len k), ``utilizations`` the fleet
        utilization holding from each instant to the next (len k; the last
        entry is unused, as is conventional for step functions).
        """
        t = np.asarray(times, dtype=float)
        u = np.asarray(utilizations, dtype=float)
        if t.ndim != 1 or t.shape != u.shape or t.size < 2:
            raise ValueError("need matching 1-D arrays with >= 2 samples")
        if (np.diff(t) < 0).any():
            raise ValueError("times must be non-decreasing")
        if (u < 0).any() or (u > 1.0 + 1e-9).any():
            raise ValueError("utilizations must lie in [0, 1]")
        res = resource or ResourceKind.CPU
        self.reset()
        self.pool.apply_uniform_load(res, float(min(u[0], 1.0)))
        self.sample(float(t[0]))
        for i in range(1, t.size):
            # Close the previous interval at the old draw, then register the
            # new utilization as a second zero-width sample at the same time.
            self.sample(float(t[i]))
            if i < t.size - 1:
                self.pool.apply_uniform_load(res, float(min(u[i], 1.0)))
                self.sample(float(t[i]))
        return self.reading()


def apply_platform_effect(
    pool: ServerPool, idle_factor: float = 1.0, dynamic_factor: float = 1.0
) -> None:
    """Rescale every server's power model in place.

    ``idle_factor`` scales the baseline draw (the Xen platform's ~0.91) and
    ``dynamic_factor`` the utilization-proportional part (~0.70 measured
    per-workload on consolidated Xen).
    """
    if idle_factor <= 0.0 or dynamic_factor <= 0.0:
        raise ValueError("platform factors must be positive")
    for server in pool:
        pm = server.power_model
        base = pm.base_watts * idle_factor
        dynamic = (pm.max_watts - pm.base_watts) * dynamic_factor
        server.power_model = ServerPowerModel(base, base + dynamic)
