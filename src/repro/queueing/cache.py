"""Bounded memoization for the Erlang-B inversions.

The model's hot path is :func:`repro.queueing.erlang.min_servers`: every
(service, resource) pair of every sweep point pays an ``O(n)`` recurrence
scan.  Dense sweeps revisit the same ``(rho, B)`` pairs constantly — the
consolidated load of a scaled scenario often equals a dedicated load seen
two grid points earlier — so an exact-answer cache turns most inversions
into a dict lookup.

Correctness contract:

- keys are ``(rho, B)`` rounded to a configurable number of decimals
  (``rho_decimals`` / ``target_decimals`` constructor parameters,
  defaulting to :attr:`ErlangCache.RHO_DECIMALS` /
  :attr:`ErlangCache.TARGET_DECIMALS`); two inputs share an entry only if
  they agree to that tolerance, which is far below the step-function
  granularity of ``min_servers`` everywhere except exactly at a step
  boundary.  The active precision is part of :meth:`ErlangCache.stats`,
  so every run manifest records it under ``parallel.cache``;
- values are computed by the *uncached* solvers on first miss and returned
  verbatim afterwards — the cache can change timing, never numbers, for
  any inputs that are representable on the rounding grid (the property
  tests sweep this);
- the store is a bounded LRU: at :attr:`maxsize` entries the least
  recently used key is evicted, so long-running services cannot leak
  memory through an unbounded sweep.

Batches (:meth:`ErlangCache.min_servers_grid`) solve their misses with the
scalar recurrence below :data:`GRID_SCALAR_CUTOFF` distinct misses and with
one call to the lockstep kernel (:func:`repro.queueing.vectorized.
min_servers`) at or above it.  The model's callers pass two or three loads
per call, where the kernel's per-call numpy overhead costs tens of times
the recurrence itself; both paths are bit-identical, so the cutoff moves
timing only.

Hit/miss/eviction counts are kept as plain integers on the cache object.
:class:`repro.parallel.sweep.ParallelSweep` snapshots them around every
chunk — including chunks executed in worker processes, whose registries
the parent cannot see — and folds the deltas into the ambient metrics
registry, which is how they surface in run manifests.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from . import erlang, vectorized

__all__ = [
    "GRID_SCALAR_CUTOFF",
    "ErlangCache",
    "shared_cache",
    "configure_shared_cache",
    "cached_min_servers",
    "cached_min_servers_continuous",
    "cached_min_servers_grid",
    "cached_erlang_b",
    "record_cache_metrics",
]

#: Distinct misses at which :meth:`ErlangCache.min_servers_grid` switches
#: from the scalar recurrence, one point at a time, to one lockstep-kernel
#: call.  Measured with ``bench_vectorized_grid::test_cache_grid_misses``
#: (fresh cache, rho uniform on [1, 300]); see CHANGES.md.
GRID_SCALAR_CUTOFF = 64


class ErlangCache:
    """Bounded LRU cache over the three Erlang solvers.

    Thread-safe; one instance is shared per process via
    :func:`shared_cache`.
    """

    #: Default rounding tolerance of the cache key, in decimal places.
    #: 1e-9 in offered load is ~1 request/year of drift at the paper's
    #: scales.
    RHO_DECIMALS = 9
    #: Blocking targets are probabilities; 12 decimals keeps distinct QoS
    #: classes (paper uses 1e-2..1e-4) unambiguously apart.
    TARGET_DECIMALS = 12

    def __init__(
        self,
        maxsize: int = 65536,
        *,
        rho_decimals: int | None = None,
        target_decimals: int | None = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        rho_decimals = self.RHO_DECIMALS if rho_decimals is None else rho_decimals
        target_decimals = (
            self.TARGET_DECIMALS if target_decimals is None else target_decimals
        )
        if rho_decimals < 0:
            raise ValueError(
                f"rho_decimals must be non-negative, got {rho_decimals}"
            )
        if target_decimals < 0:
            raise ValueError(
                f"target_decimals must be non-negative, got {target_decimals}"
            )
        self.maxsize = maxsize
        self.rho_decimals = rho_decimals
        self.target_decimals = target_decimals
        self._store: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- key construction -------------------------------------------------------------

    def key_for(self, kind: str, *args: float) -> tuple:
        """The exact store key used for a lookup (exposed for the tests)."""
        if kind == "erlang_b":
            n, rho = args
            return ("erlang_b", int(n), round(float(rho), self.rho_decimals))
        rho, target = args
        return (
            kind,
            round(float(rho), self.rho_decimals),
            round(float(target), self.target_decimals),
        )

    # -- core lookup ------------------------------------------------------------------

    def _lookup(self, key: tuple, compute: Callable[[], object]) -> object:
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                return self._store[key]
        # Compute outside the lock: inversions can take milliseconds and
        # concurrent threads should not serialise on them.  A racing
        # duplicate computation returns the same value, so last-write-wins
        # is harmless.
        value = compute()
        with self._lock:
            self.misses += 1
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)
                self.evictions += 1
        return value

    # -- cached solvers ---------------------------------------------------------------

    def min_servers(self, rho: float, blocking_target: float) -> int:
        """Memoized :func:`repro.queueing.erlang.min_servers`."""
        key = self.key_for("min_servers", rho, blocking_target)
        return self._lookup(key, lambda: erlang.min_servers(rho, blocking_target))

    def min_servers_continuous(self, rho: float, blocking_target: float) -> int:
        """Memoized :func:`repro.queueing.erlang.min_servers_continuous`."""
        key = self.key_for("min_servers_continuous", rho, blocking_target)
        return self._lookup(
            key, lambda: erlang.min_servers_continuous(rho, blocking_target)
        )

    def erlang_b(self, n: int, rho: float) -> float:
        """Memoized :func:`repro.queueing.erlang.erlang_b`."""
        key = self.key_for("erlang_b", n, rho)
        return self._lookup(key, lambda: erlang.erlang_b(n, rho))

    # -- batched solver ---------------------------------------------------------------

    def min_servers_grid(self, rho, blocking_target):
        """Memoized batched inversion over aligned ``(rho, B)`` inputs.

        Returns an ``int64`` array of the broadcast shape.  The whole batch
        is validated first, as :func:`repro.queueing.vectorized.min_servers`
        validates it (every target, then every load, same message text).
        Known points are answered from the store.  The distinct misses are
        solved outside the lock: point by point with the scalar recurrence
        below :data:`GRID_SCALAR_CUTOFF` of them, else in one lockstep-kernel
        call.  The batch is then replayed against the store in order, so
        hits, misses, evictions and LRU order move exactly as if each point
        had gone through :meth:`min_servers`.  Both solvers are
        bit-identical to the scalar scan, so the cached values are too.
        """
        shape, rhos, tgts = _broadcast_flat(rho, blocking_target)
        _validate_batch(rhos, tgts)
        keys = [self.key_for("min_servers", r, t) for r, t in zip(rhos, tgts)]
        known: dict[tuple, int] = {}
        missing: dict[tuple, int] = {}  # key -> index of its first point
        store = self._store
        with self._lock:
            for i, key in enumerate(keys):
                if key in store:
                    known[key] = store[key]
                elif key not in missing:
                    missing[key] = i
        if missing:
            idx = list(missing.values())
            solved = _solve([rhos[i] for i in idx], [tgts[i] for i in idx])
            known.update(zip(missing, solved))
        out = []
        with self._lock:
            for key in keys:
                if key in store:
                    store.move_to_end(key)
                    self.hits += 1
                    out.append(store[key])
                    continue
                value = known[key]
                self.misses += 1
                store[key] = value
                if len(store) > self.maxsize:
                    store.popitem(last=False)
                    self.evictions += 1
                out.append(value)
        return np.array(out, dtype=np.int64).reshape(shape)

    # -- introspection ----------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def stats(self) -> dict[str, int]:
        """Current counters + occupancy (plain ints, snapshot-safe)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._store),
                "maxsize": self.maxsize,
                "rho_decimals": self.rho_decimals,
                "target_decimals": self.target_decimals,
            }

    def clear(self) -> None:
        """Drop all entries and zero the counters (test isolation hook)."""
        with self._lock:
            self._store.clear()
            self.hits = self.misses = self.evictions = 0


def _broadcast_flat(rho, target) -> tuple[tuple[int, ...], list[float], list[float]]:
    """Broadcast shape and flat (C-order) float lists of ``(rho, target)``.

    A scalar target with a scalar or a flat sequence of loads — what the
    model passes — broadcasts in plain Python: numpy's broadcast and copies
    would cost more than the lookups.  Anything else goes through numpy.
    """
    if vectorized._is_scalar(target):
        if vectorized._is_scalar(rho):
            return (), [float(rho)], [float(target)]
        if isinstance(rho, (list, tuple)) and all(map(vectorized._is_scalar, rho)):
            return (len(rho),), [float(r) for r in rho], [float(target)] * len(rho)
    rho_arr, tgt_arr = np.broadcast_arrays(
        np.asarray(rho, dtype=np.float64), np.asarray(target, dtype=np.float64)
    )
    return rho_arr.shape, rho_arr.ravel().tolist(), tgt_arr.ravel().tolist()


def _validate_batch(rhos: list[float], tgts: list[float]) -> None:
    """Accept a valid batch in plain Python; let the array validators word errors.

    The fast check fails exactly when :func:`repro.queueing.vectorized.
    min_servers` would reject the batch (NaN fails both comparisons), and
    the array validators then raise its message for the first offending
    target, else the first offending load.
    """
    if all(0.0 < t < 1.0 for t in tgts) and all(0.0 <= r < math.inf for r in rhos):
        return
    vectorized._validate_target_array(np.asarray(tgts, dtype=np.float64))
    vectorized._validate_load_array(np.asarray(rhos, dtype=np.float64))


def _solve(rhos: list[float], tgts: list[float]) -> list[int]:
    """Uncached inversions of validated points, by the cheaper kernel."""
    if len(rhos) < GRID_SCALAR_CUTOFF:
        return [vectorized._min_servers_scalar(r, t) for r, t in zip(rhos, tgts)]
    return vectorized.min_servers(np.array(rhos), np.array(tgts)).tolist()


_shared = ErlangCache()
_shared_lock = threading.Lock()


def shared_cache() -> ErlangCache:
    """The per-process shared cache instance.

    Worker processes of a :class:`~repro.parallel.sweep.ParallelSweep`
    each hold their own (fork children start with a copy, spawn children
    with a fresh one); the sweep engine merges their counter deltas back
    into the parent.
    """
    return _shared


def configure_shared_cache(
    maxsize: int,
    *,
    rho_decimals: int | None = None,
    target_decimals: int | None = None,
) -> ErlangCache:
    """Replace the shared cache with a fresh one bounded at ``maxsize``.

    ``rho_decimals`` / ``target_decimals`` override the key-rounding
    precision (default: class attributes); the active values are reported
    by :meth:`ErlangCache.stats` and therefore land in run manifests.
    """
    global _shared
    with _shared_lock:
        _shared = ErlangCache(
            maxsize=maxsize,
            rho_decimals=rho_decimals,
            target_decimals=target_decimals,
        )
        return _shared


def cached_min_servers(rho: float, blocking_target: float) -> int:
    """Shared-cache front end for the paper's Fig. 4 inner loop."""
    return _shared.min_servers(rho, blocking_target)


def cached_min_servers_continuous(rho: float, blocking_target: float) -> int:
    """Shared-cache front end for the bisection inversion."""
    return _shared.min_servers_continuous(rho, blocking_target)


def cached_min_servers_grid(rho, blocking_target):
    """Shared-cache front end for the batched inversion over a grid."""
    return _shared.min_servers_grid(rho, blocking_target)


def cached_erlang_b(n: int, rho: float) -> float:
    """Shared-cache front end for one Erlang-B evaluation."""
    return _shared.erlang_b(n, rho)


def record_cache_metrics(registry, baseline: dict[str, int] | None = None) -> None:
    """Fold this process's cache counters into ``registry``.

    ``baseline`` is an earlier :meth:`ErlangCache.stats` snapshot; only the
    delta since then is recorded, so a CLI can scope the counters to one
    run.  Counters carry ``origin="parent"`` to stay disjoint from the
    ``origin="workers"`` series that :class:`repro.parallel.sweep.
    ParallelSweep` merges out of its child processes — together the two
    series are the complete cache story a run manifest shows.
    """
    if not getattr(registry, "enabled", False):
        return
    stats = _shared.stats()
    base = baseline or {}
    labels = {"origin": "parent"}
    for key in ("hits", "misses", "evictions"):
        amount = stats[key] - base.get(key, 0)
        if amount:
            registry.counter(
                f"erlang_cache_{key}_total",
                help=f"shared Erlang-cache {key} (see repro.queueing.cache)",
                labels=labels,
            ).inc(amount)
    registry.gauge(
        "erlang_cache_size", help="entries resident in the shared Erlang cache"
    ).set(stats["size"])
