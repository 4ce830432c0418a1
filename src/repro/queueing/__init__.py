"""Queueing-theory substrate: distributions, Poisson processes, Erlang formulas.

Everything the paper's Section III derivation consumes from "the queuing
theory" is implemented here from first principles:

- :mod:`repro.queueing.distributions` — service-time laws (M/G/n/n works
  for any of them by insensitivity);
- :mod:`repro.queueing.poisson` — arrival processes and superposition;
- :mod:`repro.queueing.vectorized` — the Erlang loss formula and its
  recurrence (paper Eq. 2) and inversion, batched: ``erlang_b`` and
  ``min_servers`` broadcast over numpy ``(n, rho)`` / ``(rho, B)`` grids
  and return plain scalars for plain-scalar input; the log-domain and
  continuous variants are scalar;
- :mod:`repro.queueing.erlang` — the historical scalar surface over the
  vectorized core (same values bit for bit, same ``ValueError`` text);
- :mod:`repro.queueing.cache` — the bounded memo over the inversions that
  the model's hot path calls;
- :mod:`repro.queueing.mmn` — M/M/n delay metrics;
- :mod:`repro.queueing.fixed_point` — reduced-load Erlang fixed point for
  multi-resource loss networks;
- :mod:`repro.queueing.engset` — finite-source loss (Engset) refinement.
"""

from .distributions import (
    Deterministic,
    Distribution,
    Empirical,
    ErlangK,
    Exponential,
    HyperExponential,
    LogNormal,
    ParetoBounded,
    Uniform,
    as_distribution,
)
from .engset import (
    engset_call_congestion,
    engset_min_servers,
    engset_time_congestion,
)
from . import vectorized
from .erlang import erlang_c, max_load_for_blocking

# The canonical Erlang entry points: erlang_b and min_servers are the
# batched (polymorphic) forms — scalars in -> scalars out, arrays in ->
# arrays of the broadcast shape.  Scalar callers see the exact historical
# behaviour (see DESIGN.md).
from .vectorized import (
    erlang_b,
    erlang_b_continuous,
    erlang_b_log,
    min_servers,
    min_servers_continuous,
    offered_load,
)
from .mmn import DelaySystemMetrics, mmn_delay_metrics
from .fixed_point import FixedPointResult, erlang_fixed_point, fixed_point_for_inputs
from .poisson import (
    MarkedArrivals,
    interarrival_times,
    poisson_arrivals,
    superpose,
    superpose_marked,
    thinned_poisson_arrivals,
)

__all__ = [
    "Distribution",
    "Exponential",
    "Deterministic",
    "Uniform",
    "ErlangK",
    "HyperExponential",
    "LogNormal",
    "ParetoBounded",
    "Empirical",
    "as_distribution",
    "vectorized",
    "erlang_b",
    "erlang_b_log",
    "erlang_b_continuous",
    "erlang_c",
    "min_servers",
    "min_servers_continuous",
    "max_load_for_blocking",
    "offered_load",
    "DelaySystemMetrics",
    "mmn_delay_metrics",
    "engset_time_congestion",
    "engset_call_congestion",
    "engset_min_servers",
    "FixedPointResult",
    "erlang_fixed_point",
    "fixed_point_for_inputs",
    "poisson_arrivals",
    "thinned_poisson_arrivals",
    "superpose",
    "superpose_marked",
    "MarkedArrivals",
    "interarrival_times",
]
