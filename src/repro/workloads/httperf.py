"""httperf-style open-loop sweep driver.

The paper uses httperf to sweep request rates against the Web server and
record reply rates.  :class:`RateSweep` packages that procedure against any
callable throughput surface: a grid of target request rates, per-point
measurement with sampling noise (real httperf runs are finite, so measured
reply rates carry Poisson counting error), and summary extraction (peak
throughput, saturation point, goodput fraction) — the ingredients of the
Fig. 5/6 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["SweepResult", "RateSweep"]


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one rate sweep against one configuration."""

    request_rates: np.ndarray
    reply_rates: np.ndarray

    def __post_init__(self) -> None:
        if self.request_rates.shape != self.reply_rates.shape:
            raise ValueError("request and reply arrays must align")
        if self.request_rates.ndim != 1 or self.request_rates.size == 0:
            raise ValueError("sweep must contain at least one point")

    @property
    def peak_throughput(self) -> float:
        return float(self.reply_rates.max())

    @property
    def saturation_rate(self) -> float:
        """Request rate at which throughput peaked."""
        return float(self.request_rates[int(np.argmax(self.reply_rates))])

    def goodput_fraction(self) -> np.ndarray:
        """Replies per request at each point (1 under capacity)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(
                self.request_rates > 0.0,
                self.reply_rates / self.request_rates,
                1.0,
            )
        return np.clip(frac, 0.0, None)


class RateSweep:
    """Open-loop load generator sweeping a throughput surface.

    Parameters
    ----------
    throughput_fn:
        Callable ``(request_rates, rng) -> reply_rates`` for one
        configuration; typically a closure over a
        :class:`~repro.workloads.specweb.WebServiceModel` and a VM count.
    duration_per_point:
        Virtual seconds each measurement point runs; reply counts are
        Poisson with mean ``reply_rate * duration``, so longer points mean
        tighter measurements — matching httperf's ``--num-conns`` effect.
    """

    def __init__(
        self,
        throughput_fn: Callable[[np.ndarray, np.random.Generator], np.ndarray],
        duration_per_point: float = 30.0,
    ) -> None:
        if duration_per_point <= 0.0:
            raise ValueError("duration per point must be positive")
        self.throughput_fn = throughput_fn
        self.duration_per_point = duration_per_point

    def run(
        self,
        rates: np.ndarray,
        rng: np.random.Generator,
        counting_noise: bool = True,
    ) -> SweepResult:
        """Measure every rate point."""
        r = np.asarray(rates, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("need a non-empty 1-D rate grid")
        if (r < 0).any():
            raise ValueError("request rates must be non-negative")
        clean = np.asarray(self.throughput_fn(r, rng), dtype=float)
        if clean.shape != r.shape:
            raise ValueError("throughput_fn must return one reply rate per request rate")
        if not counting_noise:
            return SweepResult(request_rates=r, reply_rates=clean)
        counts = rng.poisson(np.clip(clean, 0.0, None) * self.duration_per_point)
        return SweepResult(
            request_rates=r, reply_rates=counts / self.duration_per_point
        )

    @staticmethod
    def default_grid(capacity_estimate: float, points: int = 25) -> np.ndarray:
        """Rate grid from light load to deep overload around a capacity."""
        if capacity_estimate <= 0.0:
            raise ValueError("capacity estimate must be positive")
        if points < 2:
            raise ValueError("need at least two grid points")
        return np.linspace(0.05 * capacity_estimate, 2.5 * capacity_estimate, points)
