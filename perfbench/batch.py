"""Run process for the batch workloads (control_week, des_validate).

Usage: python3 perfbench/batch.py WORKLOAD SEED SECONDS [--ops N] [--trace]
                                  [--part K --parts P]

Imports the program and generates its inputs, prints ``ready``, then
waits on stdin: ``go`` runs the work and prints one JSON result line,
anything else exits.  The parent times start-to-``ready`` as set-up.
Work runs for about SECONDS (at least two operations: it stops where it
ends nearest SECONDS), or for exactly N operations with ``--ops``;
``--trace`` wraps the layers first.  With ``--part K --parts P`` the
process takes operations K, K+P, K+2P, ... so P processes share one
run's inputs without repeating any.  Each operation is timed between two
calibration points (perfbench/calib.py) and reported at reference speed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calib, gen, layers  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402

RECORDED = Path(__file__).resolve().parent / "recorded.json"
MAX_OPS = 10_000
#: Operations a timed run does at least, however short its seconds: the
#: des_validate interval needs two replications.
MIN_OPS = 2


def _week_ledger(comparison) -> dict:
    out = {}
    for name, o in comparison.outcomes.items():
        out[name] = {
            "boots": o.boots,
            "shutdowns": o.shutdowns,
            "migrations": o.migrations,
            "server_hours": o.server_hours,
        }
    return out


class ControlWeek:
    """One op = one week of the three-strategy fluid comparison."""

    def __init__(self, seed: int) -> None:
        from repro.control import ControllerConfig, FleetState, run_comparison
        from repro.core import DynamicCapacityPlanner, ResourceKind, ServerPowerModel, ServiceSpec
        from repro.virtualization.placement import VmDemand
        from repro.workloads.traces import TraceBundle

        self.api = (ControllerConfig, FleetState, run_comparison, DynamicCapacityPlanner,
                    ResourceKind, ServerPowerModel, ServiceSpec, VmDemand, TraceBundle)
        self.seeds = gen.week_seeds(seed, gen.WEEK_POOL)
        self.weeks = [gen.week_traces(s) for s in self.seeds]
        self.vm_counts = gen.week_vm_counts()
        self.ticks = 0

    def __len__(self) -> int:
        return len(self.weeks)

    def run(self, i: int) -> dict:
        return self.run_week(self.seeds[i], *self.weeks[i])

    def run_week(self, week_seed: int, hours, traces) -> dict:
        (ControllerConfig, FleetState, run_comparison, DynamicCapacityPlanner,
         ResourceKind, ServerPowerModel, ServiceSpec, VmDemand, TraceBundle) = self.api
        bundle = TraceBundle(hours=hours, traces=dict(traces))
        services = [
            ServiceSpec(name, 1.0, {ResourceKind.CPU: gen.WEEK_MU}, {ResourceKind.CPU: 1.0})
            for name in traces
        ]
        planner = DynamicCapacityPlanner(
            services, gen.WEEK_TARGET_B, power_model=ServerPowerModel(),
            period_length=gen.WEEK_TICK_H * 3600.0, hold_periods=1,
        )
        vms = [
            VmDemand(f"{name}-{k}", {ResourceKind.CPU: gen.WEEK_VM_SLICE})
            for name, count in self.vm_counts.items()
            for k in range(count)
        ]
        combined = sum(traces.values())
        peak_idx = int(combined.argmax())
        first = {name: float(tr[0]) for name, tr in traces.items()}
        peak = {name: float(tr[peak_idx]) for name, tr in traces.items()}
        fleet = FleetState(
            math.ceil(1.5 * planner.servers_needed(peak)) + 2, vms,
            initial_on=math.ceil(1.15 * planner.servers_needed(first)),
        )
        comparison = run_comparison(
            planner, bundle, fleet,
            config=ControllerConfig(interval=gen.WEEK_TICK_H, pool="dc"),
            peak_window_h=3.0,
        )
        self.ticks += len(hours)
        return {"seed": week_seed, "ticks": len(hours), "ledger": _week_ledger(comparison)}

    @staticmethod
    def check(op: dict, recorded: dict) -> str:
        want = recorded["control_week"].get(str(op["seed"]))
        if want is None:
            return f"week {op['seed']}: no recorded ledger"
        if op["ledger"] != want:
            return f"week {op['seed']}: ledger {op['ledger']} != recorded {want}"
        return ""


class DesValidate:
    """One op = one fixed-horizon loss-network replication at the sized N."""

    def __init__(self, seed: int) -> None:
        import numpy as np
        from repro.cli import parse_deployment
        from repro.core import UtilityAnalyticModel
        from repro.simulation.loss_network import LossNetwork, ServiceTraffic

        self.np = np
        self.api = (parse_deployment, UtilityAnalyticModel, LossNetwork, ServiceTraffic)
        self.doc = {"loss_probability": gen.DES_B, "services": gen.des_services()}
        self.seeds = gen.des_seeds(seed, MAX_OPS)
        self.servers = None
        self.arrivals = 0

    def __len__(self) -> int:
        return len(self.seeds)

    def run(self, i: int) -> dict:
        parse_deployment, UtilityAnalyticModel, LossNetwork, ServiceTraffic = self.api
        inputs, _targets, _planner = parse_deployment(self.doc)
        if self.servers is None:
            # Size once per process: the model (L0/L1) runs a handful of
            # times, the DES does the work.
            self.servers = UtilityAnalyticModel(inputs, load_model="offered").solve().consolidated_servers
        traffics = [
            ServiceTraffic.exponential(
                s.name, s.arrival_rate, {r: s.effective_mu(r) for r in s.service_rates}
            )
            for s in inputs.services
        ]
        result = LossNetwork(self.servers, traffics, pool="bench").run(
            gen.DES_HORIZON, self.np.random.default_rng(self.seeds[i])
        )
        self.arrivals += result.total_arrived
        return {
            "seed": self.seeds[i],
            "servers": self.servers,
            "arrived": dict(result.per_service_arrived),
            "blocked": dict(result.per_service_blocked),
        }

    @staticmethod
    def check(op: dict, recorded: dict) -> str:
        if sum(op["arrived"].values()) == 0:
            return f"replication {op['seed']}: no arrivals"
        want = recorded["des_validate"]
        if op["seed"] == want["seed"]:
            got = {"servers": op["servers"], "arrived": op["arrived"], "blocked": op["blocked"]}
            ref = {k: want[k] for k in ("servers", "arrived", "blocked")}
            if got != ref:
                return f"fixed-seed replication: {got} != recorded {ref}"
        return ""


WORKLOADS = {"control_week": ControlWeek, "des_validate": DesValidate}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args(argv)

    work = WORKLOADS[args.workload](args.seed)
    recorded = json.loads(RECORDED.read_text())
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    from repro.parallel.cache import shared_cache

    rec = Recorder()
    if args.trace:
        layers.install(rec)
    before = shared_cache().stats()
    ops, errors = [], []
    start = time.perf_counter()
    indices = range(args.part, len(work), args.parts)
    # Calibration points between operations, never during one: each op's
    # time is rescaled by the mean of the points before and after it.
    cal = calib.point()
    for i in indices[:args.ops] if args.ops else indices:
        t0 = time.perf_counter()
        op = work.run(i)
        op["wall_s"] = time.perf_counter() - t0
        cal_after = calib.point()
        op["cal_s"] = 0.5 * (cal + cal_after)
        op["scaled_s"] = calib.scale(op["wall_s"], op["cal_s"])
        cal = cal_after
        ops.append(op)
        # Stop where the run ends nearest SECONDS, taking the next op to
        # last as long as this one.
        if (not args.ops and len(ops) >= MIN_OPS
                and time.perf_counter() - start + 0.5 * op["wall_s"] >= args.seconds):
            break
    rec.restore()
    after = shared_cache().stats()
    for op in ops:
        problem = work.check(op, recorded)
        if problem:
            errors.append(problem)
    out = {
        "ops": ops,
        "errors": errors,
        "ticks": getattr(work, "ticks", 0),
        "arrivals": getattr(work, "arrivals", 0),
        "cache_hits": after["hits"] - before["hits"],
        "cache_lookups": after["hits"] + after["misses"] - before["hits"] - before["misses"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        out["layers"] = layers.summarize(rec.spans, rec.counters)
        out["missing"] = rec.missing
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
