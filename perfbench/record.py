"""Regenerate perfbench/recorded.json, the workloads' recorded references.

Usage (from the root of a checkout): python3 perfbench/record.py [--jobs N]

Records every pooled week's ledger (boots, shutdowns, migrations and
server-hours per strategy), the fixed-seed DES replication's exact
arrival and blocked counts, the model's Erlang-B loss at the sized pool,
and the SHA-256 of the ``/plan`` response to each fixed-seed body.  Rerun it only in a change that means to
alter these results, so the diff of recorded.json shows what moved.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import batch, gen, run  # noqa: E402


def _week(week_seed: int) -> tuple[int, dict]:
    work = batch.ControlWeek(0)
    return week_seed, work.run_week(week_seed, *gen.week_traces(week_seed))["ledger"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Regenerate perfbench/recorded.json.")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        weeks = dict(pool.map(_week, range(gen.WEEK_POOL)))
    des = batch.DesValidate(0)
    op = des.run(0)
    parse_deployment, UtilityAnalyticModel, _net, _traffic = des.api
    inputs, _targets, _planner = parse_deployment(des.doc)
    predicted = UtilityAnalyticModel(inputs, load_model="offered").blocking_with_servers(op["servers"])
    oracle = run.Oracle()
    doc = {
        "control_week": {str(k): weeks[k] for k in sorted(weeks)},
        "des_validate": {**{k: op[k] for k in ("seed", "servers", "arrived", "blocked")},
                         "predicted_loss": predicted},
        "plan": {"seed": gen.PLAN_FIXED_SEED,
                 "sha256": [oracle.digest(b).hex() for b in gen.fixed_plan_bodies()]},
    }
    batch.RECORDED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {batch.RECORDED}: {len(weeks)} weeks, DES seed {op['seed']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
