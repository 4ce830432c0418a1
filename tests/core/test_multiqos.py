"""Unit tests for per-service QoS targets."""

import pytest

from repro.core.inputs import ModelInputs, ResourceKind, ServiceSpec
from repro.core.model import UtilityAnalyticModel
from repro.core.multiqos import solve_with_targets
from repro.queueing.cache import shared_cache
from repro.queueing.erlang import min_servers

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK_IO


def inputs():
    web = ServiceSpec(
        "web", 1200.0, {CPU: 3360.0, DISK: 1420.0}, {CPU: 0.65, DISK: 0.8}
    )
    db = ServiceSpec("db", 80.0, {CPU: 100.0}, {CPU: 0.9})
    return ModelInputs((web, db), 0.01)


class TestUniformTargetsReduceToBaseModel:
    def test_matches_fig4_solution(self):
        base = UtilityAnalyticModel(inputs()).solve()
        multi = solve_with_targets(inputs(), {})
        assert multi.dedicated_servers == base.dedicated_servers
        assert multi.consolidated_servers == base.consolidated_servers

    def test_explicit_equal_targets_match_too(self):
        multi = solve_with_targets(inputs(), {"web": 0.01, "db": 0.01})
        base = UtilityAnalyticModel(inputs()).solve()
        assert multi.consolidated_servers == base.consolidated_servers


class TestPerServiceTargets:
    def test_dedicated_islands_use_own_targets(self):
        multi = solve_with_targets(inputs(), {"web": 0.05, "db": 0.001})
        assert multi.dedicated_per_service["web"] == min_servers(
            1200.0 / 1420.0, 0.05
        )
        assert multi.dedicated_per_service["db"] == min_servers(80.0 / 100.0, 0.001)

    def test_strictest_service_binds_shared_resource(self):
        # db's tight SLA binds CPU, which both services load.
        multi = solve_with_targets(inputs(), {"web": 0.05, "db": 0.001})
        assert multi.binding_service_per_resource[CPU] == "db"

    def test_gold_tier_raises_consolidated_count(self):
        lax = solve_with_targets(inputs(), {"web": 0.05, "db": 0.05})
        gold_db = solve_with_targets(inputs(), {"web": 0.05, "db": 0.0001})
        assert gold_db.consolidated_servers > lax.consolidated_servers
        assert gold_db.sla_premium(lax) >= 1

    def test_untouched_resource_not_bound(self):
        # Disk in paper mode carries zero consolidated load (mu_di ~ inf).
        multi = solve_with_targets(inputs(), {"db": 0.001})
        assert multi.consolidated_per_resource[DISK] == 0
        assert multi.binding_service_per_resource[DISK] == "-"

    def test_offered_mode_disk_bound_by_web_only(self):
        # In offered mode disk carries web's load; web's target binds it
        # even when db is stricter (db never touches disk).
        multi = solve_with_targets(
            inputs(), {"web": 0.05, "db": 0.0001}, load_model="offered"
        )
        assert multi.binding_service_per_resource[DISK] == "web"

    def test_relaxing_everything_shrinks_fleet(self):
        tight = solve_with_targets(inputs(), {"web": 0.001, "db": 0.001})
        loose = solve_with_targets(inputs(), {"web": 0.1, "db": 0.1})
        assert loose.dedicated_servers <= tight.dedicated_servers
        assert loose.consolidated_servers <= tight.consolidated_servers


class TestSharedCache:
    def test_target_sizing_runs_through_the_shared_cache(self):
        # Five points: web cpu/disk at 0.05, db cpu at 0.001, then the pool's
        # cpu at 0.001 (db binds) and disk at 0.05 (web alone loads it).
        solve_with_targets(inputs(), {"web": 0.05, "db": 0.001})
        first = shared_cache().stats()
        solve_with_targets(inputs(), {"web": 0.05, "db": 0.001})
        second = shared_cache().stats()
        assert (first["hits"], first["misses"]) == (0, 5)
        assert (second["hits"], second["misses"]) == (5, 5)


class TestValidation:
    def test_unknown_service_rejected(self):
        with pytest.raises(KeyError):
            solve_with_targets(inputs(), {"ghost": 0.01})

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            solve_with_targets(inputs(), {"web": 0.0})
        with pytest.raises(ValueError):
            solve_with_targets(inputs(), {"web": 1.0})
