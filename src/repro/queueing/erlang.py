"""Erlang loss (Erlang B) and delay (Erlang C) formulas — scalar surface.

This is the mathematical heart of the paper: the utility analytic model
computes, for every (service, resource) pair, the minimum number of servers
``n`` such that the Erlang-B blocking probability ``E_n(rho)`` drops to the
target loss probability ``B``.  Section III.A of the paper gives the
iterative recurrence (their Eq. 2)::

    E_0(rho) = 1
    E_n(rho) = rho * E_{n-1}(rho) / (n + rho * E_{n-1}(rho))

The implementations live in :mod:`repro.queueing.vectorized`, which solves
whole (rho, B) grids in one call.  This module keeps the historical scalar
API as thin wrappers over the vectorized core's scalar fast path; the
scalar-only log-domain and continuous variants are the vectorized module's
own functions, re-exported.

Compatibility contract (see DESIGN.md): every function here accepts and
returns plain Python scalars, executes the exact float64 operation sequence
the pre-vectorization code executed (so golden pins and the jobs∈{1,2,4}
determinism suite stay bit-identical), and raises ``ValueError`` with text
identical to the batched entry points.
"""

from __future__ import annotations

from . import vectorized as _vec
from .vectorized import (
    _validate_load,
    _validate_target,
    erlang_b_continuous,
    erlang_b_log,
    min_servers_continuous,
)

__all__ = [
    "offered_load",
    "erlang_b",
    "erlang_b_log",
    "erlang_b_continuous",
    "erlang_c",
    "min_servers",
    "min_servers_continuous",
    "max_load_for_blocking",
]


def offered_load(arrival_rate: float, service_rate: float) -> float:
    """Traffic intensity ``rho = lambda / mu`` (paper Eq. 3).

    ``service_rate = inf`` (a resource the service barely touches, like the
    DB service's disk I/O in the paper, ``mu_di ~ inf``) yields zero load.
    """
    return _vec.offered_load(float(arrival_rate), float(service_rate))


def erlang_b(n: int, rho: float) -> float:
    """Blocking probability of an M/G/n/n loss system via the recurrence.

    A verbatim implementation of the paper's Eq. (2).  Exact and numerically
    stable (every iterate lies in ``(0, 1]``), cost ``O(n)``.  For whole
    grids, pass arrays to :func:`repro.queueing.vectorized.erlang_b`.
    """
    return _vec.erlang_b(int(n), float(rho))


def erlang_c(n: int, rho: float) -> float:
    """Erlang C: probability of queueing in an M/M/n delay system.

    Defined for ``rho < n`` (stability); related to Erlang B by
    ``C = n*B / (n - rho*(1-B))``.  Not used by the headline model (which is
    a loss system) but needed by the response-time estimates in the
    data-center simulation's sanity checks.
    """
    if n <= 0:
        raise ValueError(f"number of servers must be positive, got {n}")
    _validate_load(rho)
    if rho >= n:
        return 1.0
    b = erlang_b(n, rho)
    return n * b / (n - rho * (1.0 - b))


def min_servers(rho: float, blocking_target: float) -> int:
    """Smallest ``n`` with ``E_n(rho) <= blocking_target``.

    The inner loop of the paper's Fig. 4 algorithm: iterate the recurrence,
    incrementing ``n`` until the target is first met.  ``O(n_final)``
    overall since each step reuses the previous blocking value.  For whole
    grids, pass arrays to :func:`repro.queueing.vectorized.min_servers`.

    When observability is enabled (:mod:`repro.obs`) each call records the
    iteration count and elapsed time under the ``erlang_inversion_*``
    metrics with ``method="recurrence"``.
    """
    return _vec.min_servers(float(rho), float(blocking_target))


def max_load_for_blocking(n: int, blocking_target: float, tol: float = 1e-10) -> float:
    """Largest offered load ``rho`` such that ``E_n(rho) <= blocking_target``.

    The dual of :func:`min_servers`; used when answering "how much workload
    can a fixed consolidated pool of N servers absorb at loss <= B?" —
    e.g. to regenerate Table I rows from a fixed (M, N) pair.
    """
    if n <= 0:
        raise ValueError(f"number of servers must be positive, got {n}")
    _validate_target(blocking_target)
    lo, hi = 0.0, float(n)
    # E_n is increasing in rho; expand hi until blocking exceeds the target.
    while erlang_b(n, hi) <= blocking_target:
        hi *= 2.0
        if hi > 1e15:  # pragma: no cover - defensive
            raise RuntimeError("max_load_for_blocking failed to bracket")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if erlang_b(n, mid) <= blocking_target:
            lo = mid
        else:
            hi = mid
    return lo
