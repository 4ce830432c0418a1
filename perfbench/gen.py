"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and a stream tag, so the same
seed always yields the same inputs and different workloads never share a
random stream.  The program under test only ever sees what these
functions return; nothing here imports the program.
"""

from __future__ import annotations

import json
import math

import numpy as np

RESOURCE_KINDS = ("cpu", "disk_io", "memory", "network")
LOSS_TARGETS = (1e-2, 1e-3, 1e-4)
#: Share of plan_cold bodies that carry per-service ``loss_probability``
#: targets (the core.multiqos path).
TARGETS_SHARE = 0.3
#: Share of plan_cold bodies that ask for ``load_model: "offered"``.
OFFERED_SHARE = 0.25
#: Consolidated offered load range of one deployment, in Erlangs: the
#: fleets this sizes run from a few servers to a few hundred.
RHO_RANGE = (1.0, 300.0)
#: plan_cold bodies come in blocks of this many, each block following the
#: same balanced design (``cold_designs``), so that every seed sends the
#: same mix and a run's latency median does not hinge on the mix one seed
#: happened to draw.
COLD_BLOCK = 48


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream) pair."""
    tag = int.from_bytes(stream.encode("utf-8")[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng([int(seed), tag])


def deployment(rng: np.random.Generator, design: dict | None = None) -> dict:
    """One random deployment document in the ``POST /plan`` schema.

    Parameters are continuous, so two draws never coincide: lambda and mu
    are real-valued, impact factors lie in (0, 1.85], and the total
    consolidated load is log-uniform over :data:`RHO_RANGE`.  A ``design``
    from :func:`cold_designs` fixes the service and kind counts, B, whether
    per-service targets and ``load_model: "offered"`` appear, and the load's
    quantile in that range; ``rng`` draws everything else.
    """
    if design is None:
        n_services = int(rng.integers(1, 5))
        n_kinds = int(rng.integers(1, 4))
    else:
        n_services, n_kinds = design["services"], design["kinds"]
    kinds = sorted(rng.choice(RESOURCE_KINDS, size=n_kinds, replace=False).tolist())
    log_lo, log_hi = math.log(RHO_RANGE[0]), math.log(RHO_RANGE[1])
    if design is None:
        rho_total = math.exp(rng.uniform(log_lo, log_hi))
    else:
        rho_total = math.exp(log_lo + design["u_rho"] * (log_hi - log_lo))
    shares = rng.dirichlet(np.ones(n_services))
    services = []
    for i in range(n_services):
        # Every service uses the first kind, so the pool is always
        # constrained (a kind some service skips is unconstrained under
        # the paper's Eq. 4 mixture).
        touched = [kinds[0]] + [k for k in kinds[1:] if rng.random() < 0.7]
        rates = {k: round(float(rng.uniform(50.0, 5000.0)), 4) for k in touched}
        impacts = {k: round(float(rng.uniform(0.25, 1.85)), 4) for k in touched}
        # Size lambda so the service's busiest resource carries its share
        # of the deployment's load (never below a tenth of an Erlang).
        rho_i = max(float(shares[i]) * rho_total, 0.1)
        arrival = round(rho_i * min(rates.values()), 4)
        services.append({
            "name": f"svc{i}",
            "arrival_rate": arrival,
            "service_rates": rates,
            "impact_factors": impacts,
        })
    doc = {
        "loss_probability": float(rng.choice(LOSS_TARGETS)) if design is None else design["loss"],
        "services": services,
    }
    if rng.random() < TARGETS_SHARE if design is None else design["targets"]:
        for svc in services:
            if rng.random() < 0.6:
                svc["loss_probability"] = float(rng.choice(LOSS_TARGETS))
        if not any("loss_probability" in s for s in services):
            services[0]["loss_probability"] = float(rng.choice(LOSS_TARGETS))
    if rng.random() < OFFERED_SHARE if design is None else design["offered"]:
        doc["load_model"] = "offered"
    return doc


def cold_designs(rng: np.random.Generator) -> list[dict]:
    """One block of :data:`COLD_BLOCK` designs, in a seeded order.

    Across the block every service count 1-4, kind count 1-3 and B appears
    equally often, per-service targets and the offered load model appear
    in :data:`TARGETS_SHARE` and :data:`OFFERED_SHARE` of the designs, and
    the loads take one quantile from each of the block's equal slices of
    the log range (a Latin hypercube: each property is shuffled on its own).
    """
    n = COLD_BLOCK

    def balanced(values) -> np.ndarray:
        return rng.permutation(np.resize(np.asarray(values), n))

    services = balanced([1, 2, 3, 4])
    kinds = balanced([1, 2, 3])
    loss = balanced(LOSS_TARGETS)
    targets = rng.permutation(np.arange(n) < round(TARGETS_SHARE * n))
    offered = rng.permutation(np.arange(n) < round(OFFERED_SHARE * n))
    u_rho = (rng.permutation(n) + rng.random(n)) / n
    return [
        {"services": int(services[i]), "kinds": int(kinds[i]), "loss": float(loss[i]),
         "targets": bool(targets[i]), "offered": bool(offered[i]), "u_rho": float(u_rho[i])}
        for i in range(n)
    ]


def encode(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


class ColdBodies:
    """Endless stream of distinct deployment bodies for one seed; with
    ``balanced`` they follow one :func:`cold_designs` block after another."""

    def __init__(self, seed: int, stream: str = "cold", balanced: bool = False) -> None:
        self.rng = rng_for(seed, stream)
        self.seen: set[bytes] = set()
        self.balanced = balanced
        self.designs: list[dict] = []

    def _design(self) -> dict | None:
        if not self.balanced:
            return None
        if not self.designs:
            self.designs = cold_designs(self.rng)[::-1]
        return self.designs.pop()

    def take(self, n: int) -> list[bytes]:
        out = []
        while len(out) < n:
            body = encode(deployment(self.rng, self._design()))
            if body not in self.seen:
                self.seen.add(body)
                out.append(body)
        return out


def plan_bodies(seed: int, stream: str, count: int) -> list[bytes]:
    """``count`` distinct deployment bodies for one seed and stream."""
    return ColdBodies(seed, stream).take(count)


#: Seed and size of the fixed body set whose response digests are recorded
#: (perfbench/recorded.json).  It is sent first in every plan warm-up.
PLAN_FIXED_SEED = 2009
PLAN_FIXED_COUNT = 24


def fixed_plan_bodies() -> list[bytes]:
    """The recorded bodies: the same on every run, whatever its seed."""
    return plan_bodies(PLAN_FIXED_SEED, "fixed", PLAN_FIXED_COUNT)


# -- control_week: the ext-dynamic fluid scenario ---------------------------

#: (name, base, peak, peak_hour, flash) per service, before scaling; the
#: ext-dynamic experiment's three staggered services and evening flash crowd.
WEEK_PROFILES = (
    ("web", 2.0, 16.0, 14.0, (20.0, 2.2, 2.0)),
    ("api", 1.5, 9.0, 11.0, None),
    ("batch", 1.0, 5.0, 18.0, None),
)
WEEK_SCALE = 40.0      # rate multiplier: ~1000 hosts at the weekly peak
WEEK_MU = 2.0          # service rate per server
WEEK_TARGET_B = 0.02
WEEK_TICK_H = 0.5      # 336 half-hour ticks per week
WEEK_DAYS = 7
WEEK_NOISE = 0.05
WEEK_VM_SLICE = 0.25
#: Week seeds with a recorded ledger (perfbench/recorded.json).  A run
#: draws distinct weeks from this pool and never repeats one, so no week
#: is served from caches another week filled.
WEEK_POOL = 128


def week_seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct week seeds from the recorded pool for one run."""
    order = rng_for(seed, "weeks").permutation(WEEK_POOL)
    return [int(x) for x in order[: min(count, WEEK_POOL)]]


def week_traces(week_seed: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Half-hourly arrival rates of one week: raised-cosine diurnal shape,
    a raised-cosine flash crowd, and 5% multiplicative Gaussian noise."""
    rng = np.random.default_rng([int(week_seed), 0x5EED])
    n = int(WEEK_DAYS * 24 / WEEK_TICK_H)
    hours = np.arange(n) * WEEK_TICK_H
    traces = {}
    for name, base, peak, peak_hour, flash in WEEK_PROFILES:
        base, peak = base * WEEK_SCALE, peak * WEEK_SCALE
        shape = 0.5 * (1.0 + np.cos(2.0 * np.pi * (hours - peak_hour) / 24.0))
        rate = base + (peak - base) * shape
        if flash is not None:
            centre, magnitude, width = flash
            offset = (hours % 24.0 - centre + 12.0) % 24.0 - 12.0
            bump = 0.5 * (1.0 + np.cos(2.0 * np.pi * offset / width))
            rate = rate * np.where(np.abs(offset) <= width / 2.0, 1.0 + (magnitude - 1.0) * bump, 1.0)
        noisy = rate * (1.0 + WEEK_NOISE * rng.standard_normal(n))
        traces[name] = np.clip(noisy, 0.0, None)
    return hours, traces


def week_vm_counts() -> dict[str, int]:
    """VM reservations per service covering its off-peak load."""
    return {
        name: max(1, round(base * WEEK_SCALE / WEEK_MU / WEEK_VM_SLICE))
        for name, base, *_ in WEEK_PROFILES
    }


# -- des_validate: the paper's group-1 Web+DB deployment, scaled ------------

#: Group 1 of the case study (web 600 req/s, DB 40 WIPS, B = 0.01) times
#: this factor: 29 consolidated servers whose Erlang-B blocking (~0.0066)
#: sits below B.
DES_SCALE = 26.0
DES_B = 0.01
DES_HORIZON = 4.0      # virtual seconds per replication (~66k arrivals)
#: The replication whose exact arrival and blocked counts are recorded.
DES_FIXED_SEED = 2009


def des_services() -> list[dict]:
    """Service parameters of the scaled group-1 deployment (paper Sec. IV)."""
    return [
        {"name": "web", "arrival_rate": 600.0 * DES_SCALE,
         "service_rates": {"cpu": 3360.0, "disk_io": 1420.0},
         "impact_factors": {"cpu": 0.65, "disk_io": 0.8}},
        {"name": "db", "arrival_rate": 40.0 * DES_SCALE,
         "service_rates": {"cpu": 100.0},
         "impact_factors": {"cpu": 0.9}},
    ]


def des_seeds(seed: int, count: int) -> list[int]:
    """Replication seeds: the recorded fixed seed first, then seed-derived."""
    rng = rng_for(seed, "des")
    return [DES_FIXED_SEED] + [int(x) for x in rng.integers(0, 2**31, size=count - 1)]
