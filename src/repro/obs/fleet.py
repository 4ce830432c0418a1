"""Fleet-level cost/energy/carbon aggregation over the run ledger.

The paper's deliverable is a *decision*: dedicated vs. consolidated
deployment, judged on servers, power, and loss probability.  This module
turns the per-run artifacts indexed by :mod:`repro.obs.ledger` into that
decision at fleet scale — projecting the metered Group-2 power figures
(Figs. 12/13) and the analytic plan (Table I utilizations through the
Eq. 12–14 linear power model) over an audit horizon, and pricing the
difference in dollars and kilograms of CO₂ under **explicit, recorded
assumptions** (electricity price, grid carbon intensity, amortized server
capex).  Nothing here re-runs an experiment; it is pure aggregation.

Three scenarios are compared:

- ``dedicated``     — the metered 8-server native-Linux fleet (Fig. 12);
- ``consolidated``  — the metered 4-server Xen fleet (Fig. 12);
- ``projected``     — what the *analytic* model alone (Table I server
  counts, Fig. 11 utilizations, the linear power model) predicts for the
  consolidated fleet — i.e. the pre-deployment estimate, without the
  measured Xen platform effects.

The aggregate serialises as an append-only, schema-versioned
``FLEET_<date>_<sha>.json`` artifact (``repro.fleet/v1``), the
machine-readable companion of the HTML run report, whose executive
summary, audit assumptions and run ledger sections render it
(:mod:`repro.obs.report`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

from .envinfo import (
    append_only_artifact_path,
    detect_git_sha,
    environment_fingerprint,
)
from .export import inputs_hash
from .ledger import RunLedger
from .trace import get_trace

__all__ = [
    "FLEET_SCHEMA",
    "HOURS_PER_YEAR",
    "AuditAssumptions",
    "ScenarioCost",
    "scenario_costs",
    "scenario_deltas",
    "per_experiment_fidelity",
    "bench_trend",
    "build_fleet_summary",
    "build_fleet_artifact",
    "validate_fleet_artifact",
    "write_fleet_artifact",
    "load_fleet_artifact",
]

FLEET_SCHEMA = "repro.fleet/v1"

#: Mean Gregorian year — the default audit horizon.
HOURS_PER_YEAR = 8766.0


@dataclass(frozen=True)
class AuditAssumptions:
    """Explicit price/carbon/capex inputs behind every dollar in the audit.

    Defaults are deliberately round, documented figures (≈US industrial
    electricity price, ≈world-average grid intensity, a commodity 2-socket
    server amortized over four years); every one of them is recorded in
    the ``FLEET_*.json`` artifact and the run manifest, so two reports
    built from the same runs with different prices are distinguishable.
    """

    price_usd_per_kwh: float = 0.12
    carbon_g_per_kwh: float = 400.0
    server_capex_usd: float = 2500.0
    server_lifetime_years: float = 4.0
    horizon_hours: float = HOURS_PER_YEAR

    def __post_init__(self) -> None:
        for name in ("price_usd_per_kwh", "carbon_g_per_kwh", "server_capex_usd"):
            if getattr(self, name) < 0.0:
                raise ValueError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )
        for name in ("server_lifetime_years", "horizon_hours"):
            if not getattr(self, name) > 0.0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )

    def as_dict(self) -> dict[str, float]:
        return {
            "price_usd_per_kwh": self.price_usd_per_kwh,
            "carbon_g_per_kwh": self.carbon_g_per_kwh,
            "server_capex_usd": self.server_capex_usd,
            "server_lifetime_years": self.server_lifetime_years,
            "horizon_hours": self.horizon_hours,
        }

    @classmethod
    def from_mapping(cls, doc: Mapping[str, Any] | None) -> "AuditAssumptions":
        if not doc:
            return cls()
        known = {
            k: float(doc[k])
            for k in (
                "price_usd_per_kwh",
                "carbon_g_per_kwh",
                "server_capex_usd",
                "server_lifetime_years",
                "horizon_hours",
            )
            if doc.get(k) is not None
        }
        return cls(**known)


@dataclass(frozen=True)
class ScenarioCost:
    """One deployment scenario priced over the audit horizon."""

    name: str
    servers: int
    mean_power_w: float
    energy_kwh: float
    energy_cost_usd: float
    capex_usd: float
    total_cost_usd: float
    carbon_kg: float
    source: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "servers": self.servers,
            "mean_power_w": round(self.mean_power_w, 1),
            "energy_kwh": round(self.energy_kwh, 1),
            "energy_cost_usd": round(self.energy_cost_usd, 2),
            "capex_usd": round(self.capex_usd, 2),
            "total_cost_usd": round(self.total_cost_usd, 2),
            "carbon_kg": round(self.carbon_kg, 1),
            "source": self.source,
        }


def _price_scenario(
    name: str,
    servers: int,
    mean_power_w: float,
    assumptions: AuditAssumptions,
    source: str,
) -> ScenarioCost:
    """Steady-state draw × horizon, priced under the audit assumptions."""
    energy_kwh = mean_power_w * assumptions.horizon_hours / 1000.0
    energy_cost = energy_kwh * assumptions.price_usd_per_kwh
    # Capex amortizes linearly over the server lifetime; the horizon's
    # share is what this audit window actually consumes.
    capex = (
        servers
        * assumptions.server_capex_usd
        * (assumptions.horizon_hours / HOURS_PER_YEAR)
        / assumptions.server_lifetime_years
    )
    return ScenarioCost(
        name=name,
        servers=servers,
        mean_power_w=mean_power_w,
        energy_kwh=energy_kwh,
        energy_cost_usd=energy_cost,
        capex_usd=capex,
        total_cost_usd=energy_cost + capex,
        carbon_kg=energy_kwh * assumptions.carbon_g_per_kwh / 1000.0,
        source=source,
    )


def _measured_scenarios(
    summaries: Mapping[str, Mapping[str, Any]],
    assumptions: AuditAssumptions,
    notes: list[str],
) -> dict[str, ScenarioCost]:
    """Dedicated/consolidated fleets from the Fig. 12 energy summary."""
    fig12 = summaries.get("fig12")
    if not fig12:
        notes.append("no fig12 summary in the ledger — measured fleets omitted")
        return {}
    required = (
        "dedicated_servers",
        "consolidated_servers",
        "dedicated_mean_power_W",
        "consolidated_mean_power_W",
    )
    missing = [k for k in required if not isinstance(fig12.get(k), (int, float))]
    if missing:
        notes.append(
            "fig12 summary predates the energy fields "
            f"({', '.join(missing)}) — regenerate it; measured fleets omitted"
        )
        return {}
    return {
        "dedicated": _price_scenario(
            "dedicated",
            int(fig12["dedicated_servers"]),
            float(fig12["dedicated_mean_power_W"]),
            assumptions,
            "measured (fig12, 8 native-Linux servers)",
        ),
        "consolidated": _price_scenario(
            "consolidated",
            int(fig12["consolidated_servers"]),
            float(fig12["consolidated_mean_power_W"]),
            assumptions,
            "measured (fig12, 4 consolidated Xen servers)",
        ),
    }


def _projected_scenario(
    summaries: Mapping[str, Mapping[str, Any]],
    assumptions: AuditAssumptions,
    notes: list[str],
) -> ScenarioCost | None:
    """Pre-deployment analytic estimate via the linear power model.

    Table I supplies the consolidated server count, Fig. 11 the measured
    CPU utilization the consolidated fleet settles at, and Eq. 12–14's
    ``P(u) = S_base + (S_max − S_base)·u`` turns that into watts — the
    number a capacity planner would have quoted *before* racking Xen.
    """
    fig11 = summaries.get("fig11")
    table1 = summaries.get("table1")
    servers = None
    if table1 and isinstance(table1.get("group2_N"), int):
        servers = table1["group2_N"]
    elif fig11 and isinstance(fig11.get("model_predicted_N"), int):
        servers = fig11["model_predicted_N"]
    util = None
    if fig11 and isinstance(fig11.get("consolidated_cpu_util"), (int, float)):
        util = float(fig11["consolidated_cpu_util"])
    if servers is None or util is None:
        notes.append(
            "no table1/fig11 summaries with server count and utilization — "
            "projected (analytic) fleet omitted"
        )
        return None
    # Imported lazily: repro/__init__ imports repro.obs, so a module-level
    # import of the model layer here would be circular.
    from ..core.power import ServerPowerModel

    model = ServerPowerModel()
    return _price_scenario(
        "projected",
        int(servers),
        servers * model.draw(min(max(util, 0.0), 1.0)),
        assumptions,
        f"analytic (table1 N={servers}, fig11 u={util:.3f}, "
        f"P(u)={model.base_watts:g}+{model.max_watts - model.base_watts:g}u W)",
    )


def scenario_costs(
    summaries: Mapping[str, Mapping[str, Any]],
    assumptions: AuditAssumptions | None = None,
    notes: list[str] | None = None,
) -> dict[str, ScenarioCost]:
    """All derivable scenarios from a set of experiment summaries."""
    assumptions = assumptions or AuditAssumptions()
    notes = notes if notes is not None else []
    scenarios = _measured_scenarios(summaries, assumptions, notes)
    projected = _projected_scenario(summaries, assumptions, notes)
    if projected is not None:
        scenarios["projected"] = projected
    return scenarios


def scenario_deltas(
    scenarios: Mapping[str, ScenarioCost]
) -> dict[str, dict[str, Any]]:
    """Pairwise savings of each alternative against the dedicated fleet.

    Positive numbers mean the alternative is cheaper/leaner.  The
    consolidated-vs-projected pair is included when both exist — it is the
    measured platform effect the analytic model cannot see.
    """
    pairs = [
        ("consolidated_vs_dedicated", "dedicated", "consolidated"),
        ("projected_vs_dedicated", "dedicated", "projected"),
        ("consolidated_vs_projected", "projected", "consolidated"),
    ]
    out: dict[str, dict[str, Any]] = {}
    for label, base_name, alt_name in pairs:
        base, alt = scenarios.get(base_name), scenarios.get(alt_name)
        if base is None or alt is None:
            continue
        out[label] = {
            "baseline": base_name,
            "alternative": alt_name,
            "servers_saved": base.servers - alt.servers,
            "power_saved_w": round(base.mean_power_w - alt.mean_power_w, 1),
            "energy_saved_kwh": round(base.energy_kwh - alt.energy_kwh, 1),
            "cost_saved_usd": round(base.total_cost_usd - alt.total_cost_usd, 2),
            "carbon_saved_kg": round(base.carbon_kg - alt.carbon_kg, 1),
            "cost_saved_fraction": (
                round(1.0 - alt.total_cost_usd / base.total_cost_usd, 4)
                if base.total_cost_usd
                else None
            ),
        }
    return out


def per_experiment_fidelity(
    fidelity_doc: Mapping[str, Any] | None
) -> dict[str, dict[str, Any]]:
    """Fold a fidelity artifact into a per-experiment verdict grid."""
    if not fidelity_doc:
        return {}
    grid: dict[str, dict[str, Any]] = {}
    for verdict in fidelity_doc.get("verdicts", []):
        name = verdict.get("experiment", "?")
        cell = grid.setdefault(
            name, {"match": 0, "drift": 0, "fail": 0, "overall": "match"}
        )
        kind = verdict.get("verdict")
        if kind in ("match", "drift", "fail"):
            cell[kind] += 1
    for cell in grid.values():
        cell["overall"] = (
            "fail" if cell["fail"] else ("drift" if cell["drift"] else "match")
        )
    return dict(sorted(grid.items()))


def bench_trend(bench_docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-benchmark median series across the ledger's time axis."""
    series: dict[str, list[float]] = {}
    axis: list[str] = []
    for doc in bench_docs:
        axis.append(str(doc.get("created_utc", "?")))
        for entry in doc.get("benchmarks", []):
            if entry.get("ok"):
                median = (entry.get("wall_s") or {}).get("median")
                if median is not None:
                    series.setdefault(entry["name"], []).append(float(median))
    return {
        "points": len(bench_docs),
        "created_utc": axis,
        "median_wall_s": {name: vals for name, vals in sorted(series.items())},
    }


def _decision(
    scenarios: Mapping[str, ScenarioCost],
    deltas: Mapping[str, Mapping[str, Any]],
    assumptions: AuditAssumptions,
) -> dict[str, Any]:
    """The executive verdict: which fleet to run, and what it buys."""
    delta = deltas.get("consolidated_vs_dedicated")
    if delta is None:
        return {
            "recommendation": None,
            "headline": "insufficient data: need fig12 energy summaries for "
            "both fleets to make a consolidation decision",
        }
    cheaper = delta["cost_saved_usd"] >= 0.0
    recommendation = "consolidated" if cheaper else "dedicated"
    frac = delta.get("cost_saved_fraction")
    pct = f"{100.0 * frac:.1f}%" if isinstance(frac, float) else "?"
    horizon_years = assumptions.horizon_hours / HOURS_PER_YEAR
    headline = (
        f"{'Consolidate' if cheaper else 'Stay dedicated'}: "
        f"{delta['servers_saved']} server(s), "
        f"{delta['energy_saved_kwh']:,.0f} kWh, "
        f"${delta['cost_saved_usd']:,.2f} ({pct} of fleet cost) and "
        f"{delta['carbon_saved_kg']:,.0f} kgCO2 saved over "
        f"{horizon_years:.2g} year(s) at "
        f"${assumptions.price_usd_per_kwh:g}/kWh, "
        f"{assumptions.carbon_g_per_kwh:g} gCO2/kWh."
    )
    return {"recommendation": recommendation, "headline": headline}


def build_fleet_summary(
    ledger: RunLedger,
    assumptions: AuditAssumptions | None = None,
    *,
    fidelity_doc: Mapping[str, Any] | None = None,
    trace=None,
) -> dict[str, Any]:
    """Aggregate a ledger into the decision document body.

    Result entries whose environment fingerprint differs from the ledger's
    dominant one are **excluded with a warning** (a ``fleet_env_mismatch``
    trace event), never fatal — mixing power numbers metered on different
    machines would silently corrupt the audit.  ``fidelity_doc`` defaults
    to the newest FIDELITY artifact in the ledger.
    """
    assumptions = assumptions or AuditAssumptions()
    trace = trace if trace is not None else get_trace()
    notes: list[str] = []
    dominant = ledger.dominant_env_key()
    excluded: list[dict[str, str]] = []
    summaries: dict[str, dict[str, Any]] = {}
    for name, entry in ledger.latest_results().items():
        if dominant and entry.env_key and entry.env_key != dominant:
            reason = (
                f"environment fingerprint {entry.env_key} differs from the "
                f"ledger's dominant {dominant}"
            )
            excluded.append({"experiment": name, "path": entry.path, "reason": reason})
            trace.warning("fleet_env_mismatch", path=entry.path, reason=reason)
            continue
        summaries[name] = dict(entry.doc.get("summary") or {})
    if excluded:
        notes.append(
            f"{len(excluded)} result(s) excluded for mixed environment "
            "fingerprints (see 'excluded')"
        )
    scenarios = scenario_costs(summaries, assumptions, notes)
    deltas = scenario_deltas(scenarios)
    if fidelity_doc is None:
        docs = ledger.fidelity_docs()
        fidelity_doc = docs[-1] if docs else None
    fidelity = {
        "overall": fidelity_doc.get("overall") if fidelity_doc else None,
        "counts": dict(fidelity_doc.get("counts", {})) if fidelity_doc else {},
        "per_experiment": per_experiment_fidelity(fidelity_doc),
    }
    return {
        "assumptions": assumptions.as_dict(),
        "scenarios": {k: v.as_dict() for k, v in scenarios.items()},
        "deltas": deltas,
        "decision": _decision(scenarios, deltas, assumptions),
        "fidelity": fidelity,
        "bench": bench_trend(ledger.bench_docs()),
        "experiments": ledger.experiments,
        "seeds": ledger.seeds,
        "environments": len(ledger.env_counts()) or (1 if ledger.entries else 0),
        "excluded": excluded,
        "notes": notes,
    }


# -- artifact ------------------------------------------------------------------


def build_fleet_artifact(
    summary: Mapping[str, Any],
    ledger: RunLedger,
    *,
    git_sha: str | None = None,
    created_utc: str | None = None,
) -> dict[str, Any]:
    """Wrap a fleet summary in the ``repro.fleet/v1`` provenance envelope.

    ``inputs_hash`` covers the indexed run ids only — *not* the price
    assumptions — so two reports over the same runs share a hash and
    differ visibly in their ``assumptions`` block.
    """
    from .. import __version__

    run_ids = sorted(e.run_id for e in ledger.entries)
    doc: dict[str, Any] = {
        "schema": FLEET_SCHEMA,
        "created_utc": created_utc
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha if git_sha is not None else detect_git_sha(),
        "model_version": __version__,
        "environment": environment_fingerprint(),
        "inputs_hash": inputs_hash({"runs": run_ids}),
        "ledger": {
            "directories": list(ledger.directories),
            "counts": ledger.counts(),
            "runs": run_ids,
            "skipped": [
                {"path": s.path, "reason": s.reason} for s in ledger.skipped
            ],
        },
    }
    doc.update(dict(summary))
    return doc


def validate_fleet_artifact(doc: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed fleet artifact."""
    if not isinstance(doc, Mapping):
        raise ValueError("fleet artifact must be a JSON object")
    schema = doc.get("schema")
    if schema != FLEET_SCHEMA:
        raise ValueError(f"unexpected schema {schema!r} (want {FLEET_SCHEMA!r})")
    for key in (
        "created_utc",
        "git_sha",
        "environment",
        "inputs_hash",
        "assumptions",
        "scenarios",
        "deltas",
        "decision",
        "ledger",
    ):
        if key not in doc:
            raise ValueError(f"fleet artifact missing {key!r}")
    if not isinstance(doc["scenarios"], Mapping):
        raise ValueError("fleet artifact 'scenarios' must be an object")
    for name, scenario in doc["scenarios"].items():
        for key in ("servers", "mean_power_w", "energy_kwh", "total_cost_usd",
                    "carbon_kg"):
            if key not in scenario:
                raise ValueError(f"scenario {name!r} missing {key!r}")
    assumptions = doc["assumptions"]
    for key in ("price_usd_per_kwh", "carbon_g_per_kwh", "server_capex_usd"):
        if key not in assumptions:
            raise ValueError(f"fleet artifact assumptions missing {key!r}")


def write_fleet_artifact(doc: Mapping[str, Any], out_dir: str | Path = ".") -> Path:
    """Write ``doc`` as ``FLEET_<YYYYMMDD>_<shortsha>.json`` (append-only)."""
    validate_fleet_artifact(doc)
    day = str(doc["created_utc"])[:10].replace("-", "")
    path = append_only_artifact_path(out_dir, f"FLEET_{day}_{doc['git_sha']}")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")
    return path


def load_fleet_artifact(path: str | Path) -> dict[str, Any]:
    """Load and validate a ``FLEET_*.json`` artifact."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(f"no such fleet artifact: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    try:
        validate_fleet_artifact(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return doc
