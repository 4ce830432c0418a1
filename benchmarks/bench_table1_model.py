"""Benchmark: Table I — the utility analytic model's sizing computation.

Regenerates the model's input/output table (M, lambda_w, lambda_d, B -> N)
and times the full Fig. 4 algorithm.  Asserts the paper's two verification
rows before timing.
"""

import pytest

from repro.core import ResourceKind, UtilityAnalyticModel, solve_with_targets
from repro.experiments.casestudy import GROUP1, GROUP2
from repro.experiments.table1 import run as run_table1


@pytest.mark.benchmark(group="table1")
def test_table1_rows(benchmark):
    result = benchmark(run_table1, seed=1, fast=True)
    assert result.summary["group1_matches_paper"]
    assert result.summary["group2_matches_paper"]


@pytest.mark.benchmark(group="table1")
def test_fig4_algorithm_group2(benchmark):
    """The bare solve() — what a capacity planner calls in a loop."""

    def solve():
        return UtilityAnalyticModel(GROUP2.inputs()).solve()

    solution = benchmark(solve)
    assert solution.dedicated_servers == 8
    assert solution.consolidated_servers == 4


@pytest.mark.benchmark(group="table1")
def test_fig4_with_targets(benchmark):
    """The same solve under per-service loss targets (core.multiqos)."""

    def solve():
        return solve_with_targets(GROUP2.inputs(), {"web": 0.05, "db": 0.001})

    multi = benchmark(solve)
    assert multi.binding_service_per_resource[ResourceKind.CPU] == "db"
    assert multi.consolidated_servers >= 4


@pytest.mark.benchmark(group="table1")
def test_fig4_algorithm_group1(benchmark):
    def solve():
        return UtilityAnalyticModel(GROUP1.inputs()).solve()

    solution = benchmark(solve)
    assert solution.dedicated_servers == 6
    assert solution.consolidated_servers == 3
