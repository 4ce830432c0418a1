"""Loss-system and loss-network simulations.

Two levels of fidelity:

- :func:`simulate_loss_system` — a fast, heap-based simulation of a single
  ``n``-server loss station fed by explicit arrival times.  No generic
  event loop: arrivals are processed in order while a min-heap tracks busy
  servers' departure times, giving ``O(K log n)`` for ``K`` arrivals.  Used
  to validate the Erlang-B formula (including its insensitivity to the
  service-time law) at scale.

- :class:`LossNetwork` — a multi-resource loss network: each
  physical-server pool exposes ``n`` units of *each* resource kind; a
  request of service ``i`` simultaneously occupies one unit of every
  resource it touches, for independently drawn holding times, and is
  blocked (lost) if *any* required resource has no free unit.  This is the
  closest executable reading of the paper's Fig. 3(b) picture: requests
  dispatched to VMs whose capability flows freely across the pooled
  machines, queued/blocked per physical resource.  Arrivals, capacity
  steps and control ticks are events on the generic DES engine;
  departures are not.  Each resource keeps a float min-heap of its units'
  departure times, and before every engine event the run pops every
  departure at or before the event's time, across resources in time
  order, each at its own instant — the heap discipline of
  :func:`simulate_loss_system`.  A departure at exactly the time of an
  engine event therefore leaves first (the ``busy[0] <= t`` rule above).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.inputs import ResourceKind
from ..core.power import ServerPowerModel
from ..obs import get_bus
from ..queueing.distributions import Distribution, Exponential, as_distribution
from .engine import Simulator
from .metrics import LossCounter, TimeWeightedStat

__all__ = [
    "LossSystemResult",
    "simulate_loss_system",
    "ServiceTraffic",
    "LossNetworkResult",
    "LossNetwork",
]


@dataclass(frozen=True)
class LossSystemResult:
    """Outcome of a single-station loss simulation."""

    servers: int
    arrived: int
    blocked: int
    duration: float
    busy_time_average: float

    @property
    def loss_probability(self) -> float:
        if self.arrived == 0:
            return 0.0
        return self.blocked / self.arrived

    @property
    def utilization(self) -> float:
        if self.servers == 0:
            return 0.0
        return self.busy_time_average / self.servers


def simulate_loss_system(
    arrivals: np.ndarray,
    service: Distribution | float,
    servers: int,
    rng: np.random.Generator,
) -> LossSystemResult:
    """Simulate an ``n``-server loss station over explicit arrival times.

    ``service`` may be a :class:`Distribution` or a number (exponential
    mean).  Holding times are pre-drawn in one vectorised call; the loop
    only manages the departure heap.
    """
    if servers < 0:
        raise ValueError(f"servers must be non-negative, got {servers}")
    times = np.asarray(arrivals, dtype=float)
    if times.size and (np.diff(times) < 0).any():
        raise ValueError("arrival times must be sorted")
    dist = as_distribution(service)
    holds = np.atleast_1d(np.asarray(dist.sample(rng, times.size), dtype=float)) if times.size else np.empty(0)

    busy: list[float] = []  # departure-time min-heap
    blocked = 0
    busy_area = 0.0
    last_t = times[0] if times.size else 0.0
    start_t = last_t
    for t, h in zip(times, holds):
        busy_area += len(busy) * (t - last_t)
        last_t = t
        while busy and busy[0] <= t:
            dep = heapq.heappop(busy)
            # Integrate the step down at the departure instant: the interval
            # [dep, t] had one fewer busy server than counted above.
            busy_area -= t - dep
        if len(busy) < servers:
            heapq.heappush(busy, t + h)
        else:
            blocked += 1
    # Drain remaining departures to close the busy-time integral.
    end_t = last_t
    while busy:
        dep = heapq.heappop(busy)
        if dep > end_t:
            busy_area += (dep - end_t) * (len(busy) + 1)
            end_t = dep
    duration = max(end_t - start_t, 0.0)
    avg_busy = busy_area / duration if duration > 0.0 else 0.0
    return LossSystemResult(
        servers=servers,
        arrived=int(times.size),
        blocked=blocked,
        duration=duration,
        busy_time_average=avg_busy,
    )


@dataclass(frozen=True)
class ServiceTraffic:
    """Simulation-side description of one service's traffic.

    ``holding`` maps each resource the service touches to the distribution
    of its holding time on that resource (mean ``1/(mu_ij * a_ij)`` in the
    consolidated scenario, ``1/mu_ij`` dedicated).
    """

    name: str
    arrival_rate: float
    holding: Mapping[ResourceKind, Distribution]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service name must be non-empty")
        if self.arrival_rate < 0.0:
            raise ValueError(f"{self.name}: arrival rate must be non-negative")
        holding = dict(self.holding)
        if not holding:
            raise ValueError(f"{self.name}: at least one resource holding time required")
        object.__setattr__(self, "holding", holding)

    @classmethod
    def exponential(
        cls, name: str, arrival_rate: float, rates: Mapping[ResourceKind, float]
    ) -> "ServiceTraffic":
        """Markovian traffic: exponential holding at the given rates.

        Infinite rates (untouched resources) are dropped.
        """
        holding = {
            kind: Exponential(rate)
            for kind, rate in rates.items()
            if not math.isinf(rate)
        }
        if not holding:
            raise ValueError(f"{name}: no finite resource rates")
        return cls(name=name, arrival_rate=arrival_rate, holding=holding)


@dataclass
class _ResourceState:
    capacity: int
    in_use: int = 0
    busy_stat: TimeWeightedStat | None = None
    #: Departure times of the units in use, a float min-heap.
    departures: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class LossNetworkResult:
    """Measured behaviour of one loss-network run."""

    servers: int
    duration: float
    per_service_loss: Mapping[str, float]
    per_service_arrived: Mapping[str, int]
    per_service_blocked: Mapping[str, int]
    per_resource_utilization: Mapping[ResourceKind, float]
    per_service_loss_ci: Mapping[str, tuple[float, float]]

    @property
    def overall_loss(self) -> float:
        arrived = sum(self.per_service_arrived.values())
        blocked = sum(self.per_service_blocked.values())
        return blocked / arrived if arrived else 0.0

    @property
    def total_arrived(self) -> int:
        return sum(self.per_service_arrived.values())


class LossNetwork:
    """Multi-resource loss network over a pool of ``servers`` machines.

    Each machine contributes one normalized unit of every resource kind, so
    resource ``j`` is a pool of ``servers`` units.  An arriving request of
    service ``i``:

    1. checks every resource in its holding map — if any has no free unit,
       the request is lost (counted per service);
    2. otherwise occupies one unit of each, releasing each after an
       independently drawn holding time.

    Departures are not engine events: each resource keeps a min-heap of
    its departure times, drained in time order across resources before
    every arrival, capacity step and control tick and once more when the
    engine runs dry.  Each departure updates the busy-time integral and
    the telemetry gauges at its own time, so results and series match an
    engine-event departure path draw for draw.  Tie rule: a departure at
    exactly the float instant of an engine event leaves before it (an
    arrival at that instant finds the unit free).  With continuous
    holding times such ties have probability zero.

    With a single resource kind this reduces exactly to the Erlang loss
    system; with several it is the standard loss-network generalisation,
    whose per-resource marginal blocking the Erlang fixed-point approximates
    — the paper's per-resource sizing is precisely that approximation plus
    a max over resources.
    """

    def __init__(
        self,
        servers: int,
        services: Sequence[ServiceTraffic],
        *,
        pool: str = "pool",
        power_model: ServerPowerModel | None = None,
    ):
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        if not services:
            raise ValueError("at least one service required")
        names = [s.name for s in services]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate service names: {names}")
        self.servers = servers
        self.services = tuple(services)
        self.pool = pool
        self.power_model = power_model
        self.resources: tuple[ResourceKind, ...] = tuple(
            {kind: None for s in services for kind in s.holding}
        )
        # Construct-time telemetry binding (see repro.obs.timeseries): the
        # bus active *now* records this network's runs; with the default
        # null bus the run loop takes the untelemetered closures below.
        self._bus = get_bus()

    @staticmethod
    def _compile_rate_schedule(
        rate_schedule: Mapping[str, Sequence[tuple[float, float]]] | None,
        names: set[str],
    ) -> dict[str, tuple[list[float], list[float], float]]:
        """Validate and index piecewise-constant rate steps per service."""
        if not rate_schedule:
            return {}
        compiled: dict[str, tuple[list[float], list[float], float]] = {}
        for name, steps in rate_schedule.items():
            if name not in names:
                raise ValueError(
                    f"rate schedule names unknown service {name!r}; "
                    f"have {sorted(names)}"
                )
            pairs = sorted((float(t), float(r)) for t, r in steps)
            if not pairs:
                raise ValueError(f"{name}: rate schedule must be non-empty")
            for when, rate in pairs:
                if when < 0.0:
                    raise ValueError(f"{name}: schedule times must be >= 0, got {when}")
                if rate < 0.0:
                    raise ValueError(f"{name}: rates must be >= 0, got {rate}")
            peak = max(rate for _, rate in pairs)
            if peak <= 0.0:
                raise ValueError(f"{name}: rate schedule is identically zero")
            compiled[name] = (
                [when for when, _ in pairs],
                [rate for _, rate in pairs],
                peak,
            )
        return compiled

    def run(
        self,
        horizon: float,
        rng: np.random.Generator,
        capacity_schedule: Sequence[tuple[float, int]] = (),
        rate_schedule: Mapping[str, Sequence[tuple[float, float]]] | None = None,
        control=None,
    ) -> LossNetworkResult:
        """Simulate ``[0, horizon]`` of virtual time.

        ``capacity_schedule`` optionally changes the pool size mid-run:
        each ``(time, servers)`` entry sets the machine count from that
        instant on (failure injection when shrinking, repair/boot when
        growing).  In-flight requests on removed machines are allowed to
        drain — capacity reductions only gate *new* admissions, the
        graceful-decommission semantics of live migration.

        ``rate_schedule`` makes named services' arrival streams
        nonhomogeneous Poisson: per service, sorted ``(time, rate)`` steps
        hold from each time onward (rate 0 before the first).  Arrivals are
        generated by thinning — candidates drawn at the schedule's peak
        rate, each accepted with probability ``rate(t)/peak`` — so a
        constant schedule reproduces the homogeneous distribution.
        Services without an entry keep their homogeneous
        ``arrival_rate`` stream on the byte-identical legacy RNG path.

        ``control`` attaches a consolidation controller to the pool (duck
        typed: ``.interval`` in virtual-time units and ``.tick(t, rates,
        busy) -> servers``, the contract of
        :class:`repro.control.controller.ConsolidationController`).  Every
        ``interval`` the run measures each service's arrival rate and the
        bottleneck resource's mean busy level over the elapsed window,
        hands them to the controller, and applies the returned pool size
        through the same graceful-drain machinery as
        ``capacity_schedule``.  The network's ``servers`` should equal the
        controller's initial powered count — the controller's fleet is the
        authority on capacity from the first tick onward.
        """
        if horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        schedule = sorted(capacity_schedule)
        for when, count in schedule:
            if when < 0.0:
                raise ValueError(f"schedule times must be >= 0, got {when}")
            if count < 0:
                raise ValueError(f"scheduled capacity must be >= 0, got {count}")
        thinned = self._compile_rate_schedule(
            rate_schedule, {s.name for s in self.services}
        )
        sim = Simulator()
        states = {
            kind: _ResourceState(
                capacity=self.servers, busy_stat=TimeWeightedStat(0.0, 0.0)
            )
            for kind in self.resources
        }
        counters = {s.name: LossCounter() for s in self.services}

        # Telemetry series (construct-time-bound bus; all no-ops when the
        # bus is the null singleton, and `telemetry` keeps even the no-op
        # calls off the disabled hot path).
        bus = self._bus
        telemetry = bus.enabled
        own_gauges: list = []
        if telemetry:
            bus.attach_simulator(sim)
            pool_labels = {"pool": self.pool}
            occ_g = {
                kind: bus.gauge(
                    "pool.occupancy", {"pool": self.pool, "resource": kind.value}
                )
                for kind in self.resources
            }
            cap_g = bus.gauge("pool.capacity", pool_labels)
            busy_g = bus.gauge("pool.busy_servers", pool_labels)
            arr_c = {
                s.name: bus.counter(
                    "pool.arrivals", {"pool": self.pool, "service": s.name}
                )
                for s in self.services
            }
            adm_c = {
                s.name: bus.counter(
                    "pool.admits", {"pool": self.pool, "service": s.name}
                )
                for s in self.services
            }
            los_c = {
                s.name: bus.counter(
                    "pool.losses", {"pool": self.pool, "service": s.name}
                )
                for s in self.services
            }
            pm = self.power_model
            pow_g = bus.gauge("pool.power_watts", pool_labels) if pm else None
            own_gauges = list(occ_g.values()) + [cap_g, busy_g]
            cap_g.set(0.0, float(self.servers))
            if pow_g is not None:
                own_gauges.append(pow_g)
                pow_g.set(0.0, self.servers * pm.base_watts)

            def record_level(t: float) -> None:
                busy = max(st.in_use for st in states.values())
                capacity = next(iter(states.values())).capacity
                busy_g.set(t, float(busy))
                if pow_g is not None:
                    pow_g.set(
                        t,
                        capacity * pm.base_watts
                        + (pm.max_watts - pm.base_watts) * min(busy, capacity),
                    )

        heappush, heappop = heapq.heappush, heapq.heappop
        # One lane per resource: (state, departure heap, occupancy gauge).
        lanes = tuple(
            (st, st.departures, occ_g[kind] if telemetry else None)
            for kind, st in states.items()
        )

        def settle(now: float) -> None:
            """Release every unit whose departure is at or before ``now``,
            across resources in time order, each at its own time."""
            while True:
                due = None
                t = now
                for lane in lanes:
                    heap = lane[1]
                    if heap and heap[0] <= t:
                        t = heap[0]
                        due = lane
                if due is None:
                    return
                st, heap, occ = due
                heappop(heap)
                st.busy_stat.update(t, st.in_use - 1)
                st.in_use -= 1
                if telemetry:
                    occ.set(t, float(st.in_use))
                    record_level(t)

        peak_capacity = [self.servers]

        def set_capacity(count: int) -> None:
            now = sim.now
            settle(now)
            for st in states.values():
                st.capacity = count
            peak_capacity[0] = max(peak_capacity[0], count)
            if telemetry:
                cap_g.set(now, float(count))
                record_level(now)

        for when, count in schedule:
            if when <= horizon:
                sim.schedule_at(when, lambda c=count: set_capacity(c))

        if control is not None:
            interval = float(control.interval)
            if interval <= 0.0:
                raise ValueError(f"control interval must be positive, got {interval}")
            ctl_arrived = {name: 0 for name in counters}
            ctl_area = [0.0]

            def control_tick() -> None:
                t = sim.now
                settle(t)
                rates = {}
                for name, counter in counters.items():
                    rates[name] = (counter.arrived - ctl_arrived[name]) / interval
                    ctl_arrived[name] = counter.arrived
                # Window-mean busy on the bottleneck resource: difference of
                # the cumulative busy integral (time_average over [0, t]
                # times t) across the window.
                area = (
                    max(st.busy_stat.time_average(t) * t for st in states.values())
                    if t > 0.0
                    else 0.0
                )
                busy = (area - ctl_area[0]) / interval
                ctl_area[0] = area
                servers_on = int(control.tick(t, rates, busy))
                if servers_on < 1:
                    raise ValueError(
                        f"controller returned non-positive capacity {servers_on}"
                    )
                if servers_on != next(iter(states.values())).capacity:
                    set_capacity(servers_on)
                if t + interval <= horizon:
                    sim.schedule_in(interval, control_tick)

            sim.schedule_at(interval, control_tick)

        def next_thinned(name: str) -> float | None:
            """Next accepted arrival after ``sim.now`` (or None past the
            horizon) for a rate-scheduled service."""
            times, rates, peak = thinned[name]
            t = sim.now
            while True:
                t += rng.exponential(1.0 / peak)
                if t > horizon:
                    return None
                idx = bisect_right(times, t) - 1
                rate = rates[idx] if idx >= 0 else 0.0
                if rng.random() * peak < rate:
                    return t

        def start_arrivals(service: ServiceTraffic) -> None:
            """Schedule the first arrival of ``service``; each arrival
            admits or blocks one request, then schedules the next."""
            name = service.name
            counter = counters[name]
            rate = service.arrival_rate
            # Admission plan, built once per run: one (state, sampler,
            # departure heap) per held resource in the holding map's
            # order, so every admission draws one sample(rng) per held
            # resource in that order.
            plan = tuple(
                (states[kind], dist.sample, states[kind].departures)
                for kind, dist in service.holding.items()
            )

            def schedule_next() -> None:
                # Per-service Poisson stream, thinned against the rate
                # schedule when one is given.
                if name in thinned:
                    nxt = next_thinned(name)
                    if nxt is not None:
                        sim.schedule_at(nxt, arrive)
                elif rate > 0.0:
                    gap = rng.exponential(1.0 / rate)
                    if sim.now + gap <= horizon:
                        sim.schedule_in(gap, arrive)

            def arrive() -> None:
                now = sim.now
                settle(now)
                if telemetry:
                    arr_c[name].add(now)
                for st, _, _ in plan:
                    if st.in_use >= st.capacity:
                        counter.record(False)
                        if telemetry:
                            los_c[name].add(now)
                        break
                else:
                    counter.record(True)
                    for st, sample, heap in plan:
                        st.busy_stat.update(now, st.in_use + 1)
                        st.in_use += 1
                        heappush(heap, now + float(sample(rng)))
                    if telemetry:
                        adm_c[name].add(now)
                        for kind in service.holding:
                            occ_g[kind].set(now, float(states[kind].in_use))
                        record_level(now)
                schedule_next()

            schedule_next()

        for service in self.services:
            start_arrivals(service)

        sim.run()
        # The run ends at the last event or departure, as when departures
        # were engine events.
        end = max(
            [sim.now, horizon]
            + [max(st.departures) for st in states.values() if st.departures]
        )
        settle(math.inf)
        for st in states.values():
            st.busy_stat.finalize(end)
        # Close only this network's gauges: other pools sharing the bus may
        # still be mid-run on their own virtual timelines.
        for gauge in own_gauges:
            gauge.finalize(end)

        return LossNetworkResult(
            servers=self.servers,
            duration=end,
            per_service_loss={
                name: c.loss_probability for name, c in counters.items()
            },
            per_service_arrived={name: c.arrived for name, c in counters.items()},
            per_service_blocked={name: c.blocked for name, c in counters.items()},
            per_resource_utilization={
                # Normalised by the largest pool size the run ever had
                # (scheduled or controller-driven), so utilization stays in
                # [0, 1] under capacity changes.
                kind: st.busy_stat.time_average(end) / max(peak_capacity[0], 1)
                for kind, st in states.items()
            },
            per_service_loss_ci={
                name: c.loss_confidence_interval() for name, c in counters.items()
            },
        )
