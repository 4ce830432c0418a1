"""Poisson arrival processes.

The model's second assumption (Section III.B.1) is that each service's
requests arrive as a Poisson process; the paper cites the classic result
that user-initiated TCP sessions on a WAN are well modelled as Poisson.
This module generates arrival-time vectors for homogeneous and
time-varying (thinned) Poisson processes, and implements the superposition
property the consolidated-scenario analysis relies on (the sum of the
per-service Poisson streams is Poisson with rate ``lambda = sum lambda_i``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "poisson_arrivals",
    "thinned_poisson_arrivals",
    "superpose",
    "MarkedArrivals",
    "superpose_marked",
    "interarrival_times",
]


def poisson_arrivals(
    rate: float, horizon: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on ``[0, horizon)``.

    Vectorised: draws ``Poisson(rate*horizon)`` uniform order statistics,
    which is distributionally identical to summing exponential gaps but a
    single NumPy call instead of a Python loop.
    """
    if rate < 0.0:
        raise ValueError(f"rate must be non-negative, got {rate}")
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if rate == 0.0:
        return np.empty(0)
    count = rng.poisson(rate * horizon)
    times = rng.uniform(0.0, horizon, count)
    times.sort()
    return times


def thinned_poisson_arrivals(
    rate_fn: Callable[[np.ndarray], np.ndarray],
    rate_max: float,
    horizon: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Non-homogeneous Poisson arrivals by Lewis–Shedler thinning.

    ``rate_fn`` must be vectorised and bounded above by ``rate_max`` on
    ``[0, horizon)``; candidates from a rate-``rate_max`` process are kept
    with probability ``rate_fn(t)/rate_max``.
    """
    if rate_max <= 0.0:
        raise ValueError(f"rate_max must be positive, got {rate_max}")
    candidates = poisson_arrivals(rate_max, horizon, rng)
    if candidates.size == 0:
        return candidates
    values = np.asarray(rate_fn(candidates), dtype=float)
    if (values < -1e-12).any() or (values > rate_max * (1.0 + 1e-9)).any():
        raise ValueError("rate_fn must satisfy 0 <= rate_fn(t) <= rate_max")
    keep = rng.uniform(0.0, 1.0, candidates.size) < values / rate_max
    return candidates[keep]


def superpose(*streams: np.ndarray) -> np.ndarray:
    """Merge sorted arrival streams into one sorted stream.

    By the superposition theorem the merge of independent Poisson streams is
    Poisson with the summed rate — exactly the consolidated-workload arrival
    process of the paper's Eq. (4) derivation.
    """
    nonempty = [np.asarray(s, dtype=float) for s in streams if len(s)]
    if not nonempty:
        return np.empty(0)
    out = np.concatenate(nonempty)
    out.sort()
    return out


@dataclass(frozen=True)
class MarkedArrivals:
    """Arrival times paired with the index of the service each belongs to."""

    times: np.ndarray
    marks: np.ndarray

    def __post_init__(self) -> None:
        if self.times.shape != self.marks.shape:
            raise ValueError("times and marks must have identical shape")
        if self.times.size and (np.diff(self.times) < 0).any():
            raise ValueError("times must be sorted")

    def __len__(self) -> int:
        return int(self.times.size)

    def for_service(self, index: int) -> np.ndarray:
        """Arrival times belonging to service ``index``."""
        return self.times[self.marks == index]


def superpose_marked(streams: Sequence[np.ndarray]) -> MarkedArrivals:
    """Merge per-service streams, remembering which service emitted each.

    The consolidated simulation needs the mark (a request for service ``i``
    is served at rate ``mu_ij * a_ij``) while the dedicated simulation can
    use the raw per-service streams directly.
    """
    times_parts = []
    marks_parts = []
    for i, s in enumerate(streams):
        arr = np.asarray(s, dtype=float)
        times_parts.append(arr)
        marks_parts.append(np.full(arr.size, i, dtype=np.int64))
    if not times_parts:
        return MarkedArrivals(np.empty(0), np.empty(0, dtype=np.int64))
    times = np.concatenate(times_parts)
    marks = np.concatenate(marks_parts)
    order = np.argsort(times, kind="stable")
    return MarkedArrivals(times[order], marks[order])


def interarrival_times(arrivals: np.ndarray) -> np.ndarray:
    """Gaps between consecutive arrivals (prepending time zero).

    For a Poisson stream these are iid exponential; the statistical tests
    use this to verify generator correctness.
    """
    arr = np.asarray(arrivals, dtype=float)
    if arr.size == 0:
        return np.empty(0)
    return np.diff(arr, prepend=0.0)
