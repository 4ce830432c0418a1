"""Queueing-theory substrate: distributions, Poisson processes, Erlang formulas.

Everything the paper's Section III derivation consumes from "the queuing
theory" is implemented here from first principles:

- :mod:`repro.queueing.distributions` — service-time laws (M/G/n/n works
  for any of them by insensitivity);
- :mod:`repro.queueing.poisson` — arrival processes and superposition;
- :mod:`repro.queueing.vectorized` — the Erlang loss formula, its
  recurrence (paper Eq. 2), continuous extension, and inversions, batched:
  every function broadcasts over numpy ``(rho, B)`` / ``(n, rho)`` grids
  and returns plain scalars for plain-scalar input;
- :mod:`repro.queueing.erlang` — the historical scalar surface, now thin
  wrappers over the vectorized core (same values bit for bit, same
  ``ValueError`` text);
- :mod:`repro.queueing.mmn` — packaged loss/delay system metrics, delay
  sizing, and waiting-time percentiles;
- :mod:`repro.queueing.birth_death` — derivation-independent cross-check;
- :mod:`repro.queueing.fixed_point` — reduced-load Erlang fixed point for
  multi-resource loss networks;
- :mod:`repro.queueing.mva` — exact MVA for closed networks (TPC-W's
  structure);
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
from .erlang import (
    erlang_b_derivative_n,
    erlang_c,
    max_load_for_blocking,
)

# The canonical Erlang entry points are the batched (polymorphic) forms:
# scalars in -> scalars out, arrays in -> arrays of the broadcast shape.
# Scalar callers see the exact historical behaviour (see DESIGN.md).
from .vectorized import (
    erlang_b,
    erlang_b_continuous,
    erlang_b_log,
    min_servers,
    min_servers_continuous,
    offered_load,
)
from .mva import MvaResult, exact_mva, throughput_bounds
from .mmn import (
    DelaySystemMetrics,
    LossSystemMetrics,
    min_servers_for_wait,
    mmn_delay_metrics,
    mmnn_loss_metrics,
    wait_percentile,
    wait_tail_probability,
)
from .birth_death import BirthDeathChain, loss_system_chain
from .fixed_point import FixedPointResult, erlang_fixed_point, fixed_point_for_inputs
from .poisson import (
    MarkedArrivals,
    interarrival_times,
    piecewise_poisson_arrivals,
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
    "erlang_b_derivative_n",
    "erlang_c",
    "min_servers",
    "min_servers_continuous",
    "max_load_for_blocking",
    "offered_load",
    "LossSystemMetrics",
    "mmnn_loss_metrics",
    "DelaySystemMetrics",
    "mmn_delay_metrics",
    "min_servers_for_wait",
    "wait_tail_probability",
    "wait_percentile",
    "MvaResult",
    "exact_mva",
    "throughput_bounds",
    "engset_time_congestion",
    "engset_call_congestion",
    "engset_min_servers",
    "BirthDeathChain",
    "loss_system_chain",
    "FixedPointResult",
    "erlang_fixed_point",
    "fixed_point_for_inputs",
    "poisson_arrivals",
    "piecewise_poisson_arrivals",
    "thinned_poisson_arrivals",
    "superpose",
    "superpose_marked",
    "MarkedArrivals",
    "interarrival_times",
]
