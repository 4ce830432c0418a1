"""Reproduction harness: one module per paper table/figure.

Run everything with ``python -m repro.experiments`` or target one artifact
(``python -m repro.experiments fig10 table1``).  Programmatic access::

    from repro.experiments import run_experiment
    result = run_experiment("table1")
    print(result.text)

See DESIGN.md's per-experiment index for the artifact -> module mapping.
Importing the package registers every experiment and declares its
fidelity expectations.
"""

# Importing the experiment modules populates the registry.
from . import (  # noqa: F401  (imported for registration side effects)
    applications,
    ext_dynamic,
    ext_multiservice,
    ext_scale,
    ext_telemetry,
    ext_wan,
    fig02_motivation,
    fig05_web_io,
    fig06_web_cpu,
    fig07_vcpu_pinning,
    fig08_db_cpu,
    fig09_operating_point,
    fig10_group1,
    fig11_group2,
    fig12_power_total,
    fig13_power_workload,
    table1,
)
from .base import ExperimentResult, all_experiments, get_experiment
from .casestudy import (
    GROUP1,
    GROUP2,
    GROUPS,
    CaseStudyGroup,
    case_study_inputs,
    db_service,
    web_service,
)

__all__ = [
    "ExperimentResult",
    "all_experiments",
    "get_experiment",
    "run_experiment",
    "CaseStudyGroup",
    "GROUP1",
    "GROUP2",
    "GROUPS",
    "case_study_inputs",
    "web_service",
    "db_service",
]


def run_experiment(name: str, seed: int = 2009, fast: bool = True) -> ExperimentResult:
    """Run one registered experiment by name."""
    return get_experiment(name)(seed=seed, fast=fast)
