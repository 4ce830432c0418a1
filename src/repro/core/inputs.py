"""Input specification for the utility analytic model.

The model (paper Section III.B) consumes, per service ``i`` and resource
type ``j``:

- the mean Poisson arrival rate ``lambda_i`` of the service;
- the mean serving rate ``mu_ij`` of one *normalized* physical server's
  resource ``j`` for requests of service ``i``;
- the virtualization impact factor ``a_ij in (0, a_max]`` — the ratio of
  QoS delivered by VMs to QoS delivered by native Linux on resource ``j``
  (values above 1 are possible: the paper's Fig. 8 shows the DB service
  running *faster* on several VMs than on native Linux, because the single
  OS image is itself the bottleneck).

These are captured by :class:`ServiceSpec` and bundled with the target loss
probability ``B`` into :class:`ModelInputs`, which validates everything a
single time so the numerical code can stay assertion-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Iterable, Mapping, Sequence

__all__ = ["ResourceKind", "ServiceSpec", "ModelInputs", "UNLIMITED_RATE"]

#: Serving rate standing for "this service barely touches this resource"
#: (the paper's ``mu_di -> infinity`` for the DB service's disk demand).
UNLIMITED_RATE = math.inf


class ResourceKind(str, Enum):
    """Resource types tracked by the model.

    The paper's case study uses CPU and disk I/O; the model itself is
    agnostic, so additional kinds are provided for the extension benches.
    Assumption 3 of the paper: different kinds do not interact.
    """

    CPU = "cpu"
    DISK_IO = "disk_io"
    MEMORY = "memory"
    NETWORK = "network"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ServiceSpec:
    """One Internet service offered to the data center.

    Parameters
    ----------
    name:
        Human-readable identifier ("web", "db", ...).
    arrival_rate:
        Mean Poisson arrival rate ``lambda_i`` (requests per second).
    service_rates:
        ``mu_ij``: mapping from resource kind to the mean rate at which one
        normalized physical server's resource ``j`` completes requests of
        this service.  Use :data:`UNLIMITED_RATE` for resources the service
        does not stress.
    impact_factors:
        ``a_ij``: virtualization impact factor per resource.  Missing
        resources default to 1.0 (no virtualization effect).
    """

    name: str
    arrival_rate: float
    service_rates: Mapping[ResourceKind, float]
    impact_factors: Mapping[ResourceKind, float] = field(default_factory=dict)

    #: Upper bound accepted for impact factors.  > 1 is legal (see module
    #: docstring) but wildly large values are almost certainly input bugs.
    MAX_IMPACT: float = 10.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service name must be non-empty")
        if self.arrival_rate < 0.0:
            raise ValueError(
                f"{self.name}: arrival rate must be non-negative, got {self.arrival_rate}"
            )
        if not self.service_rates:
            raise ValueError(f"{self.name}: at least one resource serving rate required")
        rates = dict(self.service_rates)
        for kind, mu in rates.items():
            if not isinstance(kind, ResourceKind):
                raise TypeError(f"{self.name}: resource keys must be ResourceKind, got {kind!r}")
            if mu <= 0.0:
                raise ValueError(f"{self.name}: mu[{kind}] must be positive, got {mu}")
        impacts = dict(self.impact_factors)
        for kind, a in impacts.items():
            if not isinstance(kind, ResourceKind):
                raise TypeError(f"{self.name}: impact keys must be ResourceKind, got {kind!r}")
            if not 0.0 < a <= self.MAX_IMPACT:
                raise ValueError(
                    f"{self.name}: impact factor a[{kind}] must lie in (0, "
                    f"{self.MAX_IMPACT}], got {a}"
                )
            if kind not in rates:
                raise ValueError(
                    f"{self.name}: impact factor given for {kind} but no serving rate"
                )
            # A virtualized rate of 0.0 would divide by zero downstream.
            if rates[kind] * a == 0.0:
                raise ValueError(
                    f"{self.name}: mu[{kind}] * a[{kind}] = {rates[kind]} * {a} "
                    "underflows to 0"
                )
        object.__setattr__(self, "service_rates", rates)
        object.__setattr__(self, "impact_factors", impacts)

    @property
    def resources(self) -> frozenset[ResourceKind]:
        return frozenset(self.service_rates)

    def mu(self, resource: ResourceKind) -> float:
        """Serving rate of ``resource`` for this service; inf if untouched."""
        return self.service_rates.get(resource, UNLIMITED_RATE)

    def impact(self, resource: ResourceKind) -> float:
        """Impact factor ``a_ij``; 1.0 where unspecified."""
        return self.impact_factors.get(resource, 1.0)

    def effective_mu(self, resource: ResourceKind) -> float:
        """Virtualized serving rate ``mu_ij * a_ij``."""
        mu = self.mu(resource)
        if math.isinf(mu):
            return mu
        return mu * self.impact(resource)

    def offered_load(self, resource: ResourceKind) -> float:
        """Dedicated-scenario traffic ``rho_ij = lambda_i / mu_ij`` (Eq. 3)."""
        mu = self.mu(resource)
        if math.isinf(mu):
            return 0.0
        return self.arrival_rate / mu

    def with_arrival_rate(self, arrival_rate: float) -> "ServiceSpec":
        """Copy of this spec with a different workload intensity."""
        return ServiceSpec(
            name=self.name,
            arrival_rate=arrival_rate,
            service_rates=self.service_rates,
            impact_factors=self.impact_factors,
        )

    def with_impact_factors(
        self, impact_factors: Mapping[ResourceKind, float]
    ) -> "ServiceSpec":
        """Copy of this spec with substituted virtualization impact factors."""
        return ServiceSpec(
            name=self.name,
            arrival_rate=self.arrival_rate,
            service_rates=self.service_rates,
            impact_factors=impact_factors,
        )

    def without_virtualization_overhead(self) -> "ServiceSpec":
        """Copy with all ``a_ij = 1`` — the ideal-hypervisor counterfactual

        used by the model's second application (Section III.B.4(2)).
        """
        return self.with_impact_factors({})


@dataclass(frozen=True)
class ModelInputs:
    """Validated bundle of everything the Fig. 4 algorithm needs."""

    services: tuple[ServiceSpec, ...]
    loss_probability: float

    def __post_init__(self) -> None:
        services = tuple(self.services)
        if not services:
            raise ValueError("at least one service required")
        names = [s.name for s in services]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate service names: {names}")
        if not 0.0 < self.loss_probability < 1.0:
            raise ValueError(
                f"loss probability B must lie in (0, 1), got {self.loss_probability}"
            )
        object.__setattr__(self, "services", services)

    @property
    def resources(self) -> tuple[ResourceKind, ...]:
        """Union of resource kinds any service touches, in stable order."""
        seen: dict[ResourceKind, None] = {}
        for s in self.services:
            for kind in s.service_rates:
                seen.setdefault(kind, None)
        return tuple(seen)

    @cached_property
    def total_arrival_rate(self) -> float:
        """Pooled arrival rate ``lambda = sum_i lambda_i``, summed once per instance."""
        return sum(s.arrival_rate for s in self.services)

    def service(self, name: str) -> ServiceSpec:
        for s in self.services:
            if s.name == name:
                return s
        raise KeyError(f"no service named {name!r}")

    def consolidated_mu(self, resource: ResourceKind, mode: str = "paper") -> float:
        """Pooled serving rate ``mu'_j`` of resource ``j``.

        ``mode="paper"`` — the paper's Eq. (4), verbatim: the arithmetic
        arrival-weighted mixture of virtualized rates,

            mu'_j = sum_i (lambda_i * mu_ij * a_ij) / lambda.

        A request reaching the pool belongs to service ``i`` with
        probability ``lambda_i/lambda`` and is served at rate
        ``mu_ij * a_ij``.  When any service with traffic does not touch the
        resource (``mu_ij = inf`` — the paper's ``mu_di ~ inf`` for the DB
        service's disk demand), its term dominates and the mixture is
        infinite, i.e. the resource imposes no constraint.  This is what
        the paper's Table I computation does, and since arithmetic mean >=
        harmonic mean it makes the model *optimistic* about consolidation.

        ``mode="offered"`` — the queueing-theoretically conservative
        variant: the rate whose reciprocal is the mixture's mean *service
        time*, ``lambda / sum_i lambda_i/(mu_ij a_ij)`` (infinite-rate
        services contribute zero time).  The resulting load is exactly the
        sum of the per-service virtualized offered loads.  Exposed for the
        ablation comparing the two readings.
        """
        lam = self.total_arrival_rate
        if lam == 0.0:
            return UNLIMITED_RATE
        if mode == "paper":
            weighted = 0.0
            for s in self.services:
                if s.arrival_rate == 0.0:
                    continue
                mu_eff = s.effective_mu(resource)
                if math.isinf(mu_eff):
                    return UNLIMITED_RATE
                weighted += s.arrival_rate * mu_eff
            return weighted / lam if weighted > 0.0 else UNLIMITED_RATE
        if mode == "offered":
            total_time = 0.0
            for s in self.services:
                mu_eff = s.effective_mu(resource)
                if math.isinf(mu_eff):
                    continue
                total_time += s.arrival_rate / mu_eff
            if total_time == 0.0:
                return UNLIMITED_RATE
            return lam / total_time
        raise ValueError(f"unknown consolidation mode {mode!r} (paper|offered)")

    def consolidated_load(self, resource: ResourceKind, mode: str = "paper") -> float:
        """Pooled traffic ``rho'_j = lambda / mu'_j`` (paper Eq. 5).

        See :meth:`consolidated_mu` for the two readings of ``mu'_j``.
        """
        lam = self.total_arrival_rate
        mu = self.consolidated_mu(resource, mode)
        if lam == 0.0 or math.isinf(mu):
            return 0.0
        # mu'_j is 0.0 when some lambda_i/(mu_ij a_ij) overflows.
        return lam / mu if mu > 0.0 else math.inf

    def without_virtualization_overhead(self) -> "ModelInputs":
        """All impact factors forced to 1 (ideal-hypervisor counterfactual)."""
        return ModelInputs(
            services=tuple(s.without_virtualization_overhead() for s in self.services),
            loss_probability=self.loss_probability,
        )

    def with_loss_probability(self, loss_probability: float) -> "ModelInputs":
        return ModelInputs(services=self.services, loss_probability=loss_probability)
