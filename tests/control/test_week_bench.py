"""The control-loop benchmark workload stays deterministic.

The CI bench job times ``benchmarks/bench_control_loop.py``, whose timed
body asserts the week's ledger at seed 2009.  Running the discovered spec
once here keeps that pin in tier-1: the ledger is part of the determinism
contract, like the golden summaries.
"""

from pathlib import Path

from repro.obs.bench import _import_bench_module, discover_suite

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
NAME = "bench_control_loop::test_week_1000_hosts"


class TestWeekWorkload:
    def test_ledger_is_pinned_at_seed_2009(self):
        (spec,) = [s for s in discover_suite(BENCH_DIR) if s.name == NAME]
        spec.fn()  # asserts the seed-2009 ledger inside the timed body

    def test_seed_changes_the_ledger(self):
        bench = _import_bench_module(BENCH_DIR / "bench_control_loop.py")
        assert bench.run_week(seed=7) != bench.LEDGER_2009

    def test_bench_entry_is_discovered(self):
        groups = {s.name: s.group for s in discover_suite(BENCH_DIR)}
        assert groups[NAME] == "control-loop"
