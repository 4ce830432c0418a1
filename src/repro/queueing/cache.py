"""Bounded memoization for the Erlang-B inversions.

The model's hot path is :func:`repro.queueing.erlang.min_servers`: every
(service, resource) pair of every sweep point pays an ``O(n)`` recurrence
scan.  Dense sweeps revisit the same ``(rho, B)`` pairs constantly — the
consolidated load of a scaled scenario often equals a dedicated load seen
two grid points earlier — so an exact-answer cache turns most inversions
into a dict lookup.

Correctness contract:

- keys are ``(rho, B)``, ``rho`` rounded to :attr:`ErlangCache.RHO_DECIMALS`
  decimals and ``B`` to :attr:`ErlangCache.TARGET_DECIMALS` significant
  digits; two inputs share an entry only if they agree to that tolerance,
  which is far below the step-function granularity of ``min_servers``
  everywhere except exactly at a step boundary.  The precision is part of :meth:`ErlangCache.stats`,
  so every run manifest records it under ``parallel.cache``;
- every input is validated *before* the lookup, exactly as the uncached
  solver validates it (same checks, same order, same message): an invalid
  input that rounds onto a cached key — ``-1e-12`` onto the key of
  ``0.0`` — still raises;
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

    #: Rounding tolerance of the cache key, in decimal places.
    #: 1e-9 in offered load is ~1 request/year of drift at the paper's
    #: scales.
    RHO_DECIMALS = 9
    #: Blocking targets are probabilities in (0, 1), rounded to this many
    #: significant digits: 12 decimals at ``B >= 0.1`` and proportionally
    #: more below, so QoS classes stay apart however strict they are.
    TARGET_DECIMALS = 12

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
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
            return ("erlang_b", int(n), round(float(rho), self.RHO_DECIMALS))
        rho, target = float(args[0]), float(args[1])
        # Targets are validated positive before any lookup.
        digits = self.TARGET_DECIMALS - 1 - math.floor(math.log10(target))
        return (kind, round(rho, self.RHO_DECIMALS), round(target, digits))

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
        rho, blocking_target = float(rho), float(blocking_target)
        vectorized._validate_target(blocking_target)
        vectorized._validate_load(rho)
        key = self.key_for("min_servers", rho, blocking_target)
        return self._lookup(key, lambda: erlang.min_servers(rho, blocking_target))

    def min_servers_continuous(self, rho: float, blocking_target: float) -> int:
        """Memoized :func:`repro.queueing.erlang.min_servers_continuous`."""
        rho, blocking_target = float(rho), float(blocking_target)
        vectorized._validate_target(blocking_target)
        vectorized._validate_load(rho)
        key = self.key_for("min_servers_continuous", rho, blocking_target)
        return self._lookup(
            key, lambda: erlang.min_servers_continuous(rho, blocking_target)
        )

    def erlang_b(self, n: int, rho: float) -> float:
        """Memoized :func:`repro.queueing.erlang.erlang_b`."""
        n, rho = int(n), float(rho)
        vectorized._validate_servers(n)
        vectorized._validate_load(rho)
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
                "rho_decimals": self.RHO_DECIMALS,
                "target_decimals": self.TARGET_DECIMALS,
            }

    def clear(self) -> None:
        """Drop all entries and zero the counters (test isolation hook)."""
        with self._lock:
            self._store.clear()
            self.hits = self.misses = self.evictions = 0


def _broadcast_flat(rho, target) -> tuple[tuple[int, ...], list[float], list[float]]:
    """Broadcast shape and flat (C-order) float lists of ``(rho, target)``.

    Scalars, and a flat sequence of loads with a scalar target or an
    equally long flat sequence of targets — what the model passes —
    broadcast in plain Python: numpy's broadcast and copies would cost more
    than the lookups.  Anything else goes through numpy.
    """
    scalar = vectorized._is_scalar
    if scalar(rho) and scalar(target):
        return (), [float(rho)], [float(target)]
    if isinstance(rho, (list, tuple)) and all(map(scalar, rho)):
        tgts = [target] * len(rho) if scalar(target) else target
        if isinstance(tgts, (list, tuple)) and len(tgts) == len(rho) and all(map(scalar, tgts)):
            return (len(rho),), [float(r) for r in rho], [float(t) for t in tgts]
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


def shared_cache() -> ErlangCache:
    """The per-process shared cache instance.

    Worker processes of a :class:`~repro.parallel.sweep.ParallelSweep`
    each hold their own (fork children start with a copy, spawn children
    with a fresh one); the sweep engine merges their counter deltas back
    into the parent.
    """
    return _shared


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
