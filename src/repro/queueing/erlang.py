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
API as thin wrappers over the vectorized core's scalar fast path.

Compatibility contract (see DESIGN.md): every function here accepts and
returns plain Python scalars, executes the exact float64 operation sequence
the pre-vectorization code executed (so golden pins and the jobs∈{1,2,4}
determinism suite stay bit-identical), and raises ``ValueError`` with text
identical to the batched entry points.
"""

from __future__ import annotations

from . import vectorized as _vec
from .vectorized import (  # noqa: F401  (re-exported for compatibility)
    _MAX_SERVERS,
    _record_inversion,
    _validate_load,
    _validate_target,
)

__all__ = [
    "offered_load",
    "erlang_b",
    "erlang_b_log",
    "erlang_b_continuous",
    "erlang_b_derivative_n",
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


def erlang_b_log(n: int, rho: float) -> float:
    """Erlang B evaluated in the log domain.

    Mathematically identical to :func:`erlang_b` but computed as
    ``exp(log(rho^n/n!) - logsumexp_k log(rho^k/k!))``, which is robust for
    enormous ``rho``/``n`` (millions of servers) where naive term-by-term
    summation of ``rho^k/k!`` would overflow long before the recurrence
    finishes.  Used for cross-validation and the very-large-scale planner.
    """
    return _vec.erlang_b_log(int(n), float(rho))


def erlang_b_continuous(n: float, rho: float) -> float:
    """Continuous extension of Erlang B to real ``n >= 0``.

    ``E_n(rho) = g / Q`` where ``g = exp(n log rho - rho - gammaln(n+1))``
    is the Poisson(rho) "pmf" at ``n`` and ``Q = gammaincc(n+1, rho)`` —
    the survival function of a Gamma(n+1) variate at ``rho`` equals
    ``P(Poisson(rho) <= n)``.
    """
    return _vec.erlang_b_continuous(float(n), float(rho))


def erlang_b_derivative_n(n: float, rho: float, eps: float = 1e-6) -> float:
    """Central-difference derivative of the continuous Erlang B in ``n``.

    Negative everywhere (adding capacity reduces blocking); exposed for the
    sensitivity analyses in the ablation benchmarks.
    """
    lo = max(0.0, n - eps)
    return (erlang_b_continuous(n + eps, rho) - erlang_b_continuous(lo, rho)) / (
        n + eps - lo
    )


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


def min_servers_continuous(rho: float, blocking_target: float) -> int:
    """Inversion via bisection on the continuous extension.

    Produces the same integer answer as :func:`min_servers` but in
    ``O(log n)`` Erlang evaluations; preferred when ``rho`` is huge.
    Records ``erlang_inversion_*`` metrics with ``method="bisection"``
    when observability is enabled.
    """
    return _vec.min_servers_continuous(float(rho), float(blocking_target))


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
