"""Batched (numpy-vectorized) Erlang-B core: whole grids in one call.

This module is the canonical implementation of the Erlang loss formula and
its inversions for the whole package.  :func:`erlang_b` and
:func:`min_servers` accept either plain Python scalars — in which case they
run the exact same float64 operation sequence the historical scalar code
ran and return a Python scalar — or numpy arrays (any broadcastable shapes,
including 0-d), in which case the computation is vectorized over the full
broadcast grid:

- :func:`erlang_b` — the paper's Eq. (2) recurrence, run in *lockstep*
  over the whole grid: iteration ``k`` applies ``b = rho*b/(k + rho*b)``
  simultaneously to every grid point still needing it, with the active
  set compacted as points finish.  Each element therefore executes
  bit-for-bit the same IEEE-754 sequence as the scalar recurrence, so
  scalar and vectorized results are **identical**, not merely close.
- :func:`min_servers` — the Fig. 4 inner loop as a lockstep scan: grow
  ``n`` once per step for every unsatisfied point at once.  Bit-identical
  to the scalar scan for the same reason, and the workhorse behind the
  million-point sweeps (see ``benchmarks``/``vectorized_grid``).

Three scalar-only variants sit beside them, for the ablation benchmark
and the very-large-load range:

- :func:`erlang_b_log` — log-domain (logsumexp) evaluation, finite for
  millions of servers;
- :func:`erlang_b_continuous` — the continuous extension to real ``n``
  via ``gammaincc``;
- :func:`min_servers_continuous` — geometric bracketing plus bisection on
  the continuous extension, polished at the boundary with exact
  recurrence evaluations so the integer answer always equals
  :func:`min_servers`'s.

Validation is shared with the scalar wrappers in
:mod:`repro.queueing.erlang` and with :mod:`repro.queueing.cache`:
non-finite or out-of-range inputs raise ``ValueError`` with *identical*
message text on every entry point; for arrays the message reports the
first offending element in C order.

Shape contract: scalar inputs (Python or numpy scalars) return Python
``float``/``int``; any ``ndarray`` input (including 0-d) to
:func:`erlang_b`/:func:`min_servers` returns an ``ndarray`` of the
broadcast shape.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from scipy import special

from ..obs import get_registry

__all__ = [
    "erlang_b",
    "erlang_b_log",
    "erlang_b_continuous",
    "min_servers",
    "min_servers_continuous",
    "offered_load",
]

_MAX_SERVERS = 50_000_000

_SCALAR_TYPES = (int, float, np.integer, np.floating)


# ---------------------------------------------------------------------------
# validation (single source of truth for scalar AND vectorized messages)
# ---------------------------------------------------------------------------


def _validate_load(rho: float) -> None:
    """Reject loads the formulas cannot answer sensibly.

    A NaN load slips through ``rho < 0`` comparisons and silently turns
    every downstream answer into nonsense (``min_servers`` used to return
    0 for it); an infinite load sends the inversion scanning toward the
    50M-server ceiling.  Both are caller bugs — fail loudly.
    """
    if not math.isfinite(rho):
        raise ValueError(f"offered load must be finite, got {rho}")
    if rho < 0.0:
        raise ValueError(f"offered load must be non-negative, got {rho}")


def _validate_target(blocking_target: float) -> None:
    """Blocking targets are probabilities strictly inside (0, 1).

    ``B = 0`` has no finite answer (blocking is positive for every finite
    ``n`` when ``rho > 0``) and ``B = 1`` makes every ``n`` a solution;
    NaN fails the chained comparison too, but gets its own message.
    """
    if not math.isfinite(blocking_target):
        raise ValueError(f"blocking target must be finite, got {blocking_target}")
    if not 0.0 < blocking_target < 1.0:
        raise ValueError(
            f"blocking target must lie in (0, 1), got {blocking_target}"
        )


def _validate_servers(n: float) -> None:
    """Server counts are non-negative (integer or, for the extension, real)."""
    if n < 0:
        raise ValueError(f"number of servers must be non-negative, got {n}")


def _first(arr: np.ndarray, mask: np.ndarray) -> float:
    """First offending element in C order (for array error messages)."""
    flat_mask = np.ravel(mask)
    return float(np.ravel(arr)[int(np.argmax(flat_mask))])


def _validate_load_array(rho: np.ndarray) -> None:
    """Array counterpart of :func:`_validate_load`; same message text."""
    bad = ~np.isfinite(rho)
    if bad.any():
        raise ValueError(f"offered load must be finite, got {_first(rho, bad)}")
    neg = rho < 0.0
    if neg.any():
        raise ValueError(
            f"offered load must be non-negative, got {_first(rho, neg)}"
        )


def _validate_target_array(target: np.ndarray) -> None:
    """Array counterpart of :func:`_validate_target`; same message text."""
    bad = ~np.isfinite(target)
    if bad.any():
        raise ValueError(
            f"blocking target must be finite, got {_first(target, bad)}"
        )
    out = ~((0.0 < target) & (target < 1.0))
    if out.any():
        raise ValueError(
            f"blocking target must lie in (0, 1), got {_first(target, out)}"
        )


def _validate_servers_array(n: np.ndarray) -> np.ndarray:
    """Coerce a server-count array to int64, rejecting negatives/fractions."""
    if n.dtype.kind not in "iu":
        if not np.isfinite(n).all():
            raise ValueError(
                f"number of servers must be finite, got {_first(n, ~np.isfinite(n))}"
            )
        if (n != np.floor(n)).any():
            raise ValueError(
                "number of servers must be an integer, "
                f"got {_first(n, n != np.floor(n))}"
            )
    out = n.astype(np.int64)
    neg = out < 0
    if neg.any():
        raise ValueError(
            f"number of servers must be non-negative, got {int(_first(out, neg))}"
        )
    return out


def _is_scalar(x) -> bool:
    return isinstance(x, _SCALAR_TYPES)


def _broadcast(*arrays: np.ndarray) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Broadcast to a common shape; returns (shape, flattened float copies)."""
    broadcast = np.broadcast_arrays(*arrays)
    shape = broadcast[0].shape
    return shape, [np.ascontiguousarray(a).reshape(-1) for a in broadcast]


# ---------------------------------------------------------------------------
# scalar kernels (the historical reference implementations, verbatim)
# ---------------------------------------------------------------------------


def _erlang_b_scalar(n: int, rho: float) -> float:
    _validate_servers(n)
    _validate_load(rho)
    if rho == 0.0:
        return 1.0 if n == 0 else 0.0
    b = 1.0
    for k in range(1, n + 1):
        b = rho * b / (k + rho * b)
    return b


def _unsolvable(rho: float, blocking_target: float) -> RuntimeError:
    return RuntimeError(
        f"min_servers did not converge below {blocking_target} "
        f"within {_MAX_SERVERS} servers (rho={rho})"
    )


def _beyond_cap(rho, blocking_target):
    """Whether no ``n`` under the cap can meet the target (elementwise).

    The carried load ``rho * (1 - B(n, rho))`` never exceeds ``n``, so
    ``B(n, rho) <= target`` needs ``n >= rho * (1 - target)``: when that
    bound passes the cap the scan would only spin up to it and fail.
    """
    return rho * (1.0 - blocking_target) > _MAX_SERVERS + 1


def _min_servers_scalar(rho: float, blocking_target: float) -> int:
    _validate_target(blocking_target)
    _validate_load(rho)
    if rho == 0.0:
        return 0
    if _beyond_cap(rho, blocking_target):
        raise _unsolvable(rho, blocking_target)
    registry = get_registry()
    t0 = perf_counter() if registry.enabled else 0.0
    b = 1.0  # E_0(rho) = 1 for rho > 0
    n = 0
    while b > blocking_target:
        n += 1
        b = rho * b / (n + rho * b)
        if n > _MAX_SERVERS:  # pragma: no cover - defensive
            raise _unsolvable(rho, blocking_target)
    if registry.enabled:
        _record_inversion(registry, "recurrence", n, perf_counter() - t0)
    return n


def _record_inversion(registry, method: str, iterations: int, elapsed: float) -> None:
    """Account one Erlang inversion (or one batch) on an enabled registry."""
    labels = {"method": method}
    registry.counter(
        "erlang_inversion_calls_total",
        help="Erlang-B inversions solved",
        labels=labels,
    ).inc()
    registry.counter(
        "erlang_inversion_iterations_total",
        help="recurrence steps / bisection evaluations spent inverting",
        labels=labels,
    ).inc(iterations)
    registry.timer(
        "erlang_inversion_seconds",
        help="wall time per Erlang-B inversion",
        labels=labels,
    ).observe(elapsed)


# ---------------------------------------------------------------------------
# array kernels (lockstep recurrences over compacting active sets)
# ---------------------------------------------------------------------------


def _erlang_b_array(n: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Exact lockstep Eq. (2) over aligned 1-D ``(n, rho)`` arrays."""
    out = np.empty(rho.shape, dtype=np.float64)
    zero = rho == 0.0
    if zero.any():
        out[zero] = np.where(n[zero] == 0, 1.0, 0.0)
    active = np.flatnonzero(~zero)
    if active.size:
        done0 = n[active] == 0
        out[active[done0]] = 1.0  # E_0(rho) = 1 for rho > 0
        active = active[~done0]
    b = np.ones(active.size)
    rho_a = rho[active]
    n_a = n[active]
    k = 0
    while active.size:
        k += 1
        num = rho_a * b
        b = num / (k + num)
        finished = n_a == k
        if finished.any():
            out[active[finished]] = b[finished]
            keep = ~finished
            active, b, rho_a, n_a = (
                active[keep],
                b[keep],
                rho_a[keep],
                n_a[keep],
            )
    return out


def _min_servers_array(rho: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Exact lockstep Fig. 4 scan over aligned 1-D ``(rho, target)`` arrays.

    Every element runs exactly the scalar scan's float sequence; elements
    are retired from the active set the step their blocking first drops to
    the target, so total arithmetic equals the scalar path's but executes
    as a handful of numpy ops per step.
    """
    hopeless = _beyond_cap(rho, target)
    if hopeless.any():
        k = int(np.argmax(hopeless))
        raise _unsolvable(float(rho[k]), float(target[k]))
    registry = get_registry()
    t0 = perf_counter() if registry.enabled else 0.0
    out = np.zeros(rho.shape, dtype=np.int64)
    active = np.flatnonzero(rho > 0.0)
    b = np.ones(active.size)
    rho_a = rho[active].copy()
    tgt_a = target[active].copy()
    alive = np.ones(active.size, dtype=bool)
    remaining = active.size
    num = np.empty(active.size)
    newly = np.empty(active.size, dtype=bool)
    n = 0
    iterations = 0
    while remaining:
        n += 1
        iterations += remaining
        # In-place b = rho*b / (n + rho*b): the same two IEEE-754 ops per
        # lane the scalar loop performs, so lane k's trajectory is the
        # scalar trajectory bit for bit.  Lanes that already crossed the
        # target keep iterating harmlessly (b only shrinks further); only
        # the first-crossing step is recorded, so their extra updates
        # cannot change any output.
        np.multiply(rho_a, b, out=num)
        np.add(num, n, out=b)
        np.divide(num, b, out=b)
        np.less_equal(b, tgt_a, out=newly)
        newly &= alive
        if newly.any():
            out[active[newly]] = n
            alive &= ~newly
            remaining = int(alive.sum())
            # Compact only when at least half the lanes are dead: the
            # boolean bookkeeping between compactions is far cheaper than
            # reslicing five arrays every step.
            if remaining and remaining <= alive.size // 2:
                active = active[alive]
                b = b[alive]
                rho_a = rho_a[alive]
                tgt_a = tgt_a[alive]
                num = np.empty(active.size)
                newly = np.empty(active.size, dtype=bool)
                alive = np.ones(active.size, dtype=bool)
        if n > _MAX_SERVERS:  # pragma: no cover - defensive
            raise RuntimeError(
                f"min_servers did not converge within {_MAX_SERVERS} servers"
            )
    if registry.enabled:
        _record_inversion(registry, "vectorized", iterations, perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------
# public API (scalar in -> scalar out; array in -> array out)
# ---------------------------------------------------------------------------


def offered_load(arrival_rate, service_rate):
    """Traffic intensity ``rho = lambda / mu`` (paper Eq. 3), broadcasting.

    ``service_rate = inf`` (a resource the service barely touches) yields
    zero load, exactly as the scalar form does.
    """
    if _is_scalar(arrival_rate) and _is_scalar(service_rate):
        arrival_rate = float(arrival_rate)
        service_rate = float(service_rate)
        if not math.isfinite(arrival_rate):
            raise ValueError(f"arrival rate must be finite, got {arrival_rate}")
        if arrival_rate < 0.0:
            raise ValueError(
                f"arrival rate must be non-negative, got {arrival_rate}"
            )
        if math.isnan(service_rate):
            raise ValueError(f"service rate must not be NaN, got {service_rate}")
        if service_rate <= 0.0:
            raise ValueError(f"service rate must be positive, got {service_rate}")
        if math.isinf(service_rate):
            return 0.0
        return arrival_rate / service_rate
    lam = np.asarray(arrival_rate, dtype=np.float64)
    mu = np.asarray(service_rate, dtype=np.float64)
    bad = ~np.isfinite(lam)
    if bad.any():
        raise ValueError(f"arrival rate must be finite, got {_first(lam, bad)}")
    neg = lam < 0.0
    if neg.any():
        raise ValueError(
            f"arrival rate must be non-negative, got {_first(lam, neg)}"
        )
    nan = np.isnan(mu)
    if nan.any():
        raise ValueError(f"service rate must not be NaN, got {_first(mu, nan)}")
    nonpos = mu <= 0.0
    if nonpos.any():
        raise ValueError(
            f"service rate must be positive, got {_first(mu, nonpos)}"
        )
    shape, (lam_f, mu_f) = _broadcast(lam, mu)
    out = np.zeros(lam_f.shape, dtype=np.float64)
    finite = np.isfinite(mu_f)
    out[finite] = lam_f[finite] / mu_f[finite]
    return out.reshape(shape)


def erlang_b(n, rho):
    """Blocking probability ``E_n(rho)`` over a broadcast ``(n, rho)`` grid.

    Scalar inputs run the classic recurrence and return ``float``; array
    inputs run the lockstep kernel and return an array of the broadcast
    shape.  The two paths are bit-identical element for element.
    """
    if _is_scalar(n) and _is_scalar(rho):
        return _erlang_b_scalar(int(n), float(rho))
    n_arr = _validate_servers_array(np.asarray(n))
    rho_arr = np.asarray(rho, dtype=np.float64)
    _validate_load_array(rho_arr)
    shape, (n_f, rho_f) = _broadcast(n_arr, rho_arr)
    return _erlang_b_array(n_f.astype(np.int64), rho_f).reshape(shape)


def min_servers(rho, blocking_target):
    """Smallest ``n`` with ``E_n(rho) <= blocking_target``, broadcasting.

    The Fig. 4 inner loop.  Scalar inputs return ``int``; arrays return an
    ``int64`` array of the broadcast shape, computed by a lockstep scan
    that is bit-identical to the scalar recurrence at every point.  This
    is the entry point for million-point capacity grids: one call sizes
    the whole ``(rho, B)`` plane.
    """
    if _is_scalar(rho) and _is_scalar(blocking_target):
        return _min_servers_scalar(float(rho), float(blocking_target))
    rho_arr = np.asarray(rho, dtype=np.float64)
    tgt_arr = np.asarray(blocking_target, dtype=np.float64)
    _validate_target_array(tgt_arr)
    _validate_load_array(rho_arr)
    shape, (rho_f, tgt_f) = _broadcast(rho_arr, tgt_arr)
    return _min_servers_array(rho_f, tgt_f).reshape(shape)


# ---------------------------------------------------------------------------
# scalar-only variants (log domain, continuous extension, bisection)
# ---------------------------------------------------------------------------


def erlang_b_log(n: int, rho: float) -> float:
    """Erlang B evaluated in the log domain (scalar).

    Mathematically identical to :func:`erlang_b` but computed as
    ``exp(log(rho^n/n!) - logsumexp_k log(rho^k/k!))``, which is robust for
    enormous ``rho``/``n`` (millions of servers) where naive term-by-term
    summation of ``rho^k/k!`` would overflow long before the recurrence
    finishes.
    """
    n, rho = int(n), float(rho)
    _validate_servers(n)
    _validate_load(rho)
    if rho == 0.0:
        return 1.0 if n == 0 else 0.0
    k = np.arange(n + 1)
    log_terms = k * math.log(rho) - special.gammaln(k + 1)
    return float(np.exp(log_terms[-1] - special.logsumexp(log_terms)))


def erlang_b_continuous(n: float, rho: float) -> float:
    """Continuous extension of Erlang B to real ``n >= 0`` (scalar).

    ``E_n(rho) = g / Q`` where ``g = exp(n log rho - rho - gammaln(n+1))``
    is the Poisson(rho) "pmf" at ``n`` and ``Q = gammaincc(n+1, rho)`` —
    the survival function of a Gamma(n+1) variate at ``rho`` equals
    ``P(Poisson(rho) <= n)``.
    """
    n, rho = float(n), float(rho)
    _validate_servers(n)
    _validate_load(rho)
    if rho == 0.0:
        return 1.0 if n == 0 else 0.0
    log_g = n * math.log(rho) - rho - special.gammaln(n + 1.0)
    cdf = special.gammaincc(n + 1.0, rho)
    if cdf <= 0.0:
        return 1.0
    return float(min(1.0, math.exp(log_g) / cdf))


def min_servers_continuous(rho: float, blocking_target: float) -> int:
    """Smallest ``n`` with ``E_n(rho) <= blocking_target``, by bisection (scalar).

    Same integer answer as :func:`min_servers` (the boundary is polished
    with exact recurrence evaluations) in ``O(log n)`` evaluations of the
    continuous extension; preferred when ``rho`` is huge.  Records
    ``erlang_inversion_*`` metrics with ``method="bisection"`` when
    observability is enabled.
    """
    rho, blocking_target = float(rho), float(blocking_target)
    _validate_target(blocking_target)
    _validate_load(rho)
    if rho == 0.0:
        return 0
    if _beyond_cap(rho, blocking_target):
        raise _unsolvable(rho, blocking_target)
    registry = get_registry()
    t0 = perf_counter() if registry.enabled else 0.0
    evaluations = 0
    # Bracket: blocking at n=0 is 1; grow hi geometrically until below target.
    hi = max(1, int(rho))
    while erlang_b_continuous(hi, rho) > blocking_target:
        evaluations += 1
        hi *= 2
        if hi > _MAX_SERVERS:  # pragma: no cover - defensive
            raise RuntimeError("min_servers_continuous failed to bracket")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        evaluations += 1
        if erlang_b_continuous(mid, rho) > blocking_target:
            lo = mid
        else:
            hi = mid
    # The continuous extension agrees with the discrete formula at integers,
    # but guard against floating-point skew at the boundary.
    while hi > 0 and _erlang_b_scalar(hi - 1, rho) <= blocking_target:
        evaluations += 1
        hi -= 1
    while _erlang_b_scalar(hi, rho) > blocking_target:
        evaluations += 1
        hi += 1
    if registry.enabled:
        _record_inversion(registry, "bisection", evaluations, perf_counter() - t0)
    return hi
