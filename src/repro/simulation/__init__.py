"""Discrete-event and fluid simulation substrate (the testbed replacement).

- :mod:`repro.simulation.engine` — minimal deterministic DES engine;
- :mod:`repro.simulation.metrics` — online statistics (Welford,
  time-weighted averages, loss counters with Wilson CIs);
- :mod:`repro.simulation.loss_network` — fast single-station loss
  simulation and the multi-resource loss network behind the case study;
- :mod:`repro.simulation.datacenter` — dedicated-vs-consolidated scenario
  runner with power metering (Figs. 10–13);
- :mod:`repro.simulation.fluid` — control-period fluid model scoring the
  Rainbow flow controllers against the analytic ideal.
"""

from .datacenter import CaseStudyResult, DataCenterSimulation, ScenarioResult
from .delay_sim import DelaySystemResult, simulate_delay_system
from .engine import ScheduledEvent, Simulator
from .fluid import FluidRunResult, simulate_flow_control
from .loss_network import (
    LossNetwork,
    LossNetworkResult,
    LossSystemResult,
    ServiceTraffic,
    simulate_loss_system,
)
from .metrics import LossCounter, RunningStats, TimeWeightedStat

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "RunningStats",
    "TimeWeightedStat",
    "LossCounter",
    "simulate_loss_system",
    "LossSystemResult",
    "LossNetwork",
    "LossNetworkResult",
    "ServiceTraffic",
    "DataCenterSimulation",
    "ScenarioResult",
    "CaseStudyResult",
    "simulate_flow_control",
    "FluidRunResult",
    "DelaySystemResult",
    "simulate_delay_system",
]
