"""Fig. 12 — total power: eight dedicated vs four consolidated servers.

The paper meters the whole fleets with an electric parameter tester, busy
and idle, and reports:

- consolidation saves up to ~53% of total power (roughly tracking the 50%
  server reduction, amplified by the Xen platform's lower draw);
- servers hosting services draw at most ~17% more than the same servers
  idle (the Barroso & Hölzle energy-proportionality observation);
- the idle Xen platform draws ~9% less than idle Linux.

The simulated meter integrates both fleets' draw over the Group 2
case-study run with the measured platform effects applied to the
consolidated (Xen) side.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import format_kv, format_table
from ..obs import fidelity
from ..parallel import sweep_grid
from ..simulation.datacenter import CaseStudyResult, DataCenterSimulation
from .base import ExperimentResult, ParamGrid, register
from .casestudy import GROUP2

__all__ = ["run", "group2_case_study"]


def _fleet_point(fleet: str, horizon: float, seed: int):
    """Meter one Group 2 fleet.

    Each fleet gets its own grid-index-derived RNG stream so the pair can
    be metered on separate cores without perturbing either measurement.
    """
    sim = DataCenterSimulation(GROUP2.inputs())
    rng = np.random.default_rng(seed)
    if fleet == "dedicated":
        return sim.run_dedicated(GROUP2.island_sizes, horizon, rng)
    return sim.run_consolidated(GROUP2.expected_consolidated, horizon, rng)


def _fleet_block(block: ParamGrid, *, seeds: list[int]) -> list:
    """One column block of fleet meterings (sweep-engine worker)."""
    return [
        _fleet_point(row["fleet"], row["horizon"], seed)
        for row, seed in zip(block.rows(), seeds)
    ]


def group2_case_study(seed: int, fast: bool, jobs: int = 1) -> CaseStudyResult:
    """Shared Group 2 run for the two power figures (engine-routed)."""
    horizon = 150.0 if fast else 2000.0
    grid = ParamGrid(
        {
            "fleet": ["dedicated", "consolidated"],
            "horizon": [horizon, horizon],
        }
    )
    dedicated, consolidated = sweep_grid(
        _fleet_block,
        grid,
        jobs=jobs,
        base_seed=seed,
        name="power:group2",
    )
    return CaseStudyResult(dedicated=dedicated, consolidated=consolidated)


@register("fig12")
def run(seed: int = 2009, fast: bool = True, jobs: int = 1) -> ExperimentResult:
    case = group2_case_study(seed, fast, jobs=jobs)
    ded, con = case.dedicated.energy, case.consolidated.energy

    rows = [
        {
            "fleet": "dedicated (8, Linux)",
            "state": "busy",
            "mean_power_W": round(ded.mean_power, 1),
        },
        {
            "fleet": "dedicated (8, Linux)",
            "state": "idle",
            "mean_power_W": round(ded.idle_energy / ded.duration, 1),
        },
        {
            "fleet": "consolidated (4, Xen)",
            "state": "busy",
            "mean_power_W": round(con.mean_power, 1),
        },
        {
            "fleet": "consolidated (4, Xen)",
            "state": "idle",
            "mean_power_W": round(con.idle_energy / con.duration, 1),
        },
    ]
    idle_linux_per_server = ded.idle_energy / ded.duration / case.dedicated.servers
    idle_xen_per_server = con.idle_energy / con.duration / case.consolidated.servers
    summary = {
        # Absolute energy block: the fleet audit layer (repro.reporting.fleet)
        # prices these numbers in $/kWh and gCO2/kWh, so the summary must
        # carry watts and joules, not just saving fractions.
        "dedicated_servers": case.dedicated.servers,
        "consolidated_servers": case.consolidated.servers,
        "dedicated_mean_power_W": round(ded.mean_power, 1),
        "consolidated_mean_power_W": round(con.mean_power, 1),
        "dedicated_energy_Wh": round(ded.total_energy / 3600.0, 2),
        "consolidated_energy_Wh": round(con.total_energy / 3600.0, 2),
        "metering_duration_s": round(ded.duration, 1),
        "power_saving_fraction": round(case.power_saving, 3),
        "paper_power_saving": 0.53,
        "server_reduction_fraction": round(
            1.0 - case.consolidated.servers / case.dedicated.servers, 3
        ),
        "dedicated_busy_over_idle": round(ded.busy_over_idle, 3),
        "consolidated_busy_over_idle": round(con.busy_over_idle, 3),
        "busy_increase_below_17pct": bool(
            max(ded.busy_over_idle, con.busy_over_idle) <= 0.17 + 0.02
        ),
        "xen_idle_saving_per_server": round(
            1.0 - idle_xen_per_server / idle_linux_per_server, 3
        ),
        "paper_xen_idle_saving": 0.09,
    }
    text = (
        format_table(
            rows,
            title="Fig. 12 — fleet power: 8 dedicated vs 4 consolidated, busy & idle",
        )
        + "\n\n"
        + format_kv(summary, title="Power savings and platform effects")
    )
    return ExperimentResult(
        experiment="fig12",
        title="Total power comparison (up to 53% saving)",
        rows=tuple(rows),
        summary=summary,
        text=text,
    )
# Paper-fidelity expectations: the 53%-power and 50%-server headlines,
# plus the measured Xen idle-power discount behind the model.
fidelity.declare_expectations(
    "fig12",
    fidelity.Expectation(
        "power_saving_fraction",
        0.53,
        rel_tol=0.05,
        source="Headline: total power drops ~53%",
    ),
    fidelity.Expectation(
        "server_reduction_fraction",
        0.5,
        source="Headline: 50% fewer servers",
    ),
    fidelity.Expectation(
        "xen_idle_saving_per_server",
        0.09,
        abs_tol=0.01,
        source="Fig. 12: Xen idles ~9% below native Linux",
    ),
    fidelity.Expectation(
        "busy_increase_below_17pct",
        True,
        op="bool",
        source="Fig. 12: busy draw stays within ~17% of idle",
    ),
)
