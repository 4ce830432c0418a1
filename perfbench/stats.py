"""Percentiles, tail rule, replication interval and ladder selection.

Pure functions over plain lists, shared by the runner and its tests.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

#: A tail percentile is only reported when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10
#: The tail percentile reported when the sample is large enough.
TAIL_Q = 99.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_q(n: int) -> float | None:
    """Highest percentile up to :data:`TAIL_Q` with :data:`MIN_BEYOND`
    samples beyond it.

    With nearest rank, percentile ``q`` of ``n`` samples is the
    ``ceil(q*n/100)``-th smallest, so ``n - ceil(q*n/100)`` samples lie
    beyond it.  Returns None when ``n`` is too small for any percentile to
    qualify.
    """
    if n <= MIN_BEYOND:
        return None
    if n - math.ceil(TAIL_Q / 100.0 * n - 1e-9) >= MIN_BEYOND:
        return TAIL_Q
    # Largest q with ceil(q*n/100) <= n - MIN_BEYOND.
    return math.floor(100.0 * (n - MIN_BEYOND) / n * 1000.0) / 1000.0


def tail(values: Sequence[float]) -> tuple[float | None, float | None]:
    """``(q, value)`` of the reportable tail percentile, or ``(None, None)``."""
    q = tail_q(len(values))
    if q is None:
        return None, None
    return q, percentile(values, q)


def mean_interval(values: Sequence[float], confidence: float) -> tuple[float, float, float]:
    """``(mean, low, high)``: two-sided Student-t interval for the mean of
    independent, roughly normal samples at ``confidence``."""
    from scipy.stats import t

    if len(values) < 2:
        raise ValueError("a mean interval needs at least two samples")
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    half = float(t.ppf(0.5 + confidence / 2.0, len(values) - 1)) * sd / math.sqrt(len(values))
    return mean, mean - half, mean + half


def search_ladder(ladder: Sequence[float], passes: Callable[[float], bool]) -> int:
    """Index of the highest passing rung, by bisection; -1 if none passes.

    Assumes a rung passes whenever a higher one does, which holds for a
    server whose latency grows with load.
    """
    lo, hi = -1, len(ladder)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(ladder[mid]):
            lo = mid
        else:
            hi = mid
    return lo


def max_passing(results: Sequence[dict]) -> dict | None:
    """The probe at the highest rate that passed and was valid.

    A probe the generator could not keep up with (``valid`` false) proves
    nothing about the server and is never selected.
    """
    best = None
    for probe in results:
        if probe["passed"] and probe["valid"]:
            if best is None or probe["rate"] > best["rate"]:
                best = probe
    return best


def ladder_range(ladder: Sequence[float], low: float, high: float) -> tuple[int, int]:
    """Indices of the rungs spanning ``[low, high]`` (clamped to the ladder)."""
    a = max((i for i, r in enumerate(ladder) if r <= low), default=0)
    b = min((i for i, r in enumerate(ladder) if r >= high), default=len(ladder) - 1)
    return a, max(a, b)


def geometric_ladder(low: float, high: float, ratio: float) -> list[float]:
    """Fixed rate ladder ``low * ratio**k`` up to ``high``."""
    out = []
    k = 0
    while True:
        rate = round(low * ratio**k, 3)
        if rate > high:
            return out
        out.append(rate)
        k += 1
