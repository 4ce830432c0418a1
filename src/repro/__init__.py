"""repro — reproduction of "Utility Analysis for Internet-Oriented Server
Consolidation in VM-Based Data Centers" (Song, Zhang, Sun, Shi; CLUSTER 2009).

The package implements the paper's utility analytic model — an Erlang-loss-
based planner predicting how many physical servers a VM-based data center
needs when consolidating several Internet services at a given request-loss
probability — together with every substrate the evaluation depends on:
queueing theory, a simulated Xen/Rainbow virtualization platform, a
physical-cluster model with power metering, a discrete-event data-center
simulator, and SPECweb2005/TPC-W-like workload generators.

Quick start::

    from repro import ConsolidationPlanner, ResourceKind, ServiceSpec

    web = ServiceSpec("web", arrival_rate=3000.0,
                      service_rates={ResourceKind.CPU: 3360.0,
                                     ResourceKind.DISK_IO: 1420.0},
                      impact_factors={ResourceKind.CPU: 0.65,
                                      ResourceKind.DISK_IO: 0.8})
    db = ServiceSpec("db", arrival_rate=250.0,
                     service_rates={ResourceKind.CPU: 100.0},
                     impact_factors={ResourceKind.CPU: 0.9})
    report = ConsolidationPlanner().plan([web, db], loss_probability=0.01)
    print(report.to_text())

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the paper-vs-measured record of every table and figure.
"""

from . import obs
from .core import (
    UNLIMITED_RATE,
    ConsolidationPlanner,
    ConsolidationReport,
    ConsolidationSolution,
    DynamicCapacityPlanner,
    DynamicPlan,
    HeterogeneousPool,
    ModelInputs,
    PowerComparison,
    QosBound,
    ResourceKind,
    ServerClass,
    ServerPowerModel,
    ServiceSpec,
    UtilityAnalyticModel,
    allocation_algorithm_bound,
    allocation_algorithm_score,
    power_comparison,
    utilization_report,
    virtualization_bound,
)

__version__ = obs.MODEL_VERSION

__all__ = [
    "__version__",
    "obs",
    "ResourceKind",
    "ServiceSpec",
    "ModelInputs",
    "UNLIMITED_RATE",
    "UtilityAnalyticModel",
    "ConsolidationSolution",
    "ConsolidationPlanner",
    "ConsolidationReport",
    "DynamicCapacityPlanner",
    "DynamicPlan",
    "ServerPowerModel",
    "PowerComparison",
    "power_comparison",
    "utilization_report",
    "QosBound",
    "allocation_algorithm_bound",
    "allocation_algorithm_score",
    "virtualization_bound",
    "ServerClass",
    "HeterogeneousPool",
]
