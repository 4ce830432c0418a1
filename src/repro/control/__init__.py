"""Dynamic consolidation control loop (the ROADMAP's closed-loop item).

The paper's utility analysis is *static* before-deployment planning.  This
package extends it into a reactive control loop over time-varying traffic,
following the four sub-problems of dynamic consolidation surveyed by the
OpenStack Neat line of work:

1. **overload / underload detection** — one
   :class:`~repro.obs.alarms.AlarmState` (hysteresis + debounce) per
   :class:`~repro.obs.alarms.AlarmRule`, stepped on the DES virtual clock
   (:mod:`repro.control.controller`);
2. **VM selection** — the minimum-migration heuristic: shut the hosts whose
   eviction moves the fewest VMs (:mod:`repro.control.fleet`);
3. **placement** — :func:`~repro.virtualization.placement.best_fit_decreasing`
   restricted to the surviving powered hosts, with capacity reserved on the
   destination while the migration is in flight;
4. **migration cost** — an explicit bandwidth-derived live-migration model
   charging dirty-page retransmission and source-host drain energy
   (:mod:`repro.control.migration`).

Sizing and on/off energy accounting delegate to the existing
:class:`~repro.core.dynamic.DynamicCapacityPlanner` (hysteresis hold,
boot-energy amortisation, ``min_servers`` floor), so the reactive
controller and the oracle per-period plan share one algebra and their
outputs are directly comparable.  :mod:`repro.control.loop` runs the
three-way comparison — static Erlang planning vs. oracle re-planning vs.
the reactive controller — in a vectorized fluid mode that handles
thousand-host weeks in seconds.
"""

from .controller import ConsolidationController, ControlDecision, ControllerConfig
from .fleet import FleetState, ScaleDecision
from .loop import StrategyOutcome, run_comparison
from .migration import MigrationCost, MigrationCostModel

__all__ = [
    "ConsolidationController",
    "ControlDecision",
    "ControllerConfig",
    "FleetState",
    "ScaleDecision",
    "MigrationCost",
    "MigrationCostModel",
    "StrategyOutcome",
    "run_comparison",
]
