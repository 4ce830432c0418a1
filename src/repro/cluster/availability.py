"""Server availability and N+k redundancy planning.

The utility analytic model sizes for *load*; a production plan must also
size for *failures*.  This module adds the standard availability layer:

- each server is a two-state Markov process (up/down) with mean time
  between failures ``mtbf`` and mean time to repair ``mttr``, giving
  steady-state availability ``A = mtbf / (mtbf + mttr)``;
- a fleet of ``n`` independent servers has ``Binomial(n, A)`` machines up;
- :func:`servers_with_redundancy` finds the smallest fleet ``n`` such that
  at least ``required`` machines are up with probability at least
  ``assurance`` — the "N + k" sizing on top of the model's N.

Combined with the Erlang sizing this answers the full planning question:
"how many machines do I rack so that, despite failures, enough are up to
keep request loss below B?"
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import stats as sps

from ..queueing.erlang import erlang_b

__all__ = [
    "ServerReliability",
    "fleet_up_probability",
    "servers_with_redundancy",
    "expected_loss_with_failures",
]


@dataclass(frozen=True)
class ServerReliability:
    """Up/down Markov model of one machine (hours)."""

    mtbf: float = 4380.0  # ~6 months between failures
    mttr: float = 8.0     # one working day to repair/replace

    def __post_init__(self) -> None:
        if self.mtbf <= 0.0 or self.mttr <= 0.0:
            raise ValueError("mtbf and mttr must be positive")

    @property
    def availability(self) -> float:
        """Steady-state probability the machine is up."""
        return self.mtbf / (self.mtbf + self.mttr)

    @property
    def annual_failures(self) -> float:
        """Expected failures per year (8766 h)."""
        return 8766.0 / self.mtbf


def fleet_up_probability(
    fleet: int, required: int, reliability: ServerReliability
) -> float:
    """P(at least ``required`` of ``fleet`` independent machines are up)."""
    if fleet < 0 or required < 0:
        raise ValueError("fleet and required must be non-negative")
    if required > fleet:
        return 0.0
    if required == 0:
        return 1.0
    a = reliability.availability
    # P(X >= required) with X ~ Binomial(fleet, a).
    return float(sps.binom.sf(required - 1, fleet, a))


def servers_with_redundancy(
    required: int,
    reliability: ServerReliability,
    assurance: float = 0.999,
    max_extra: int | None = None,
) -> int:
    """Smallest fleet covering ``required`` up-machines with ``assurance``.

    ``fleet_up_probability`` is monotone in the fleet size and tends to 1
    as the fleet grows (any availability > 0), so a geometric expansion
    followed by bisection always terminates — even for pathologically
    unreliable servers where the answer is thousands of spares beyond
    ``required``.  Pass ``max_extra`` to cap the spares an operator is
    willing to consider; past the cap this raises ``RuntimeError``.
    """
    if required < 0:
        raise ValueError(f"required must be non-negative, got {required}")
    if not 0.0 < assurance < 1.0:
        raise ValueError(f"assurance must lie in (0, 1), got {assurance}")
    if required == 0:
        return 0

    def feasible(n: int) -> bool:
        return fleet_up_probability(n, required, reliability) >= assurance

    lo = required
    if feasible(lo):
        return lo
    hi = max(2 * lo, lo + 1)
    while not feasible(hi):
        if max_extra is not None and hi - required > max_extra:
            raise RuntimeError(
                f"no fleet within {max_extra} spares reaches assurance {assurance}"
            )
        lo = hi
        hi *= 2
    # Invariant: lo infeasible, hi feasible; bisect to the boundary.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    if max_extra is not None and hi - required > max_extra:
        raise RuntimeError(
            f"no fleet within {max_extra} spares reaches assurance {assurance}"
        )
    return hi


def expected_loss_with_failures(
    fleet: int,
    offered_load: float,
    reliability: ServerReliability,
) -> float:
    """Failure-averaged Erlang blocking of a fleet.

    Conditions the Erlang-B loss on the number of machines currently up
    (Binomial mixture):  ``E[B] = sum_k P(K = k) E_k(rho)``.  This is the
    quantity the bare model under-reports by assuming a always-healthy
    fleet; the tests quantify the gap.
    """
    if fleet < 0:
        raise ValueError(f"fleet must be non-negative, got {fleet}")
    if offered_load < 0.0:
        raise ValueError(f"offered load must be non-negative, got {offered_load}")
    a = reliability.availability
    total = 0.0
    for k in range(fleet + 1):
        p = float(sps.binom.pmf(k, fleet, a))
        if p > 0.0:
            total += p * erlang_b(k, offered_load)
    return total
