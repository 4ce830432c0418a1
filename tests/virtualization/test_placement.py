"""Unit tests for VM placement (bin-packing consolidation baseline)."""

import pytest

from repro.core.inputs import ResourceKind
from repro.virtualization.placement import (
    VmDemand,
    best_fit_decreasing,
    first_fit_decreasing,
    migration_plan,
)

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK_IO


def vm(name, cpu, disk=None):
    demands = {CPU: cpu}
    if disk is not None:
        demands[DISK] = disk
    return VmDemand(name, demands)


class TestVmDemand:
    def test_size_is_dominant_dimension(self):
        assert vm("a", 0.3, 0.7).size == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            VmDemand("", {CPU: 0.5})
        with pytest.raises(ValueError):
            VmDemand("a", {})
        with pytest.raises(ValueError):
            vm("a", -0.1)
        with pytest.raises(ValueError):
            vm("a", 1.5)
        with pytest.raises(TypeError):
            VmDemand("a", {"cpu": 0.5})


@pytest.mark.parametrize("pack", [first_fit_decreasing, best_fit_decreasing],
                         ids=["ffd", "bfd"])
class TestPackingCommon:
    def test_all_vms_placed(self, pack):
        vms = [vm(f"v{i}", 0.3) for i in range(10)]
        plan = pack(vms)
        assert set(plan.assignments) == {f"v{i}" for i in range(10)}

    def test_no_host_overcommitted(self, pack):
        vms = [vm(f"v{i}", 0.4, 0.6) for i in range(7)]
        plan = pack(vms)
        plan.validate()
        for load in plan.host_loads:
            assert load.get(CPU, 0.0) <= 1.0 + 1e-9
            assert load.get(DISK, 0.0) <= 1.0 + 1e-9

    def test_perfect_fit(self, pack):
        # Four half-size VMs fit exactly on two hosts.
        vms = [vm(f"v{i}", 0.5) for i in range(4)]
        assert pack(vms).hosts_used == 2

    def test_single_huge_vms_each_get_a_host(self, pack):
        vms = [vm(f"v{i}", 0.9) for i in range(3)]
        assert pack(vms).hosts_used == 3

    def test_deterministic(self, pack):
        vms = [vm(f"v{i}", 0.2 + 0.05 * (i % 5)) for i in range(12)]
        a = pack(vms)
        b = pack(vms)
        assert a.assignments == b.assignments

    def test_multidimensional_constraint_binds(self, pack):
        # CPU fits 3 per host but disk only 2.
        vms = [vm(f"v{i}", 0.3, 0.5) for i in range(4)]
        assert pack(vms).hosts_used == 2

    def test_duplicate_names_rejected(self, pack):
        with pytest.raises(ValueError):
            pack([vm("a", 0.1), vm("a", 0.2)])


class TestPackingQuality:
    def test_ffd_within_bound_of_optimal(self):
        # Optimal for 0.6/0.4 pairs is pairing them: n hosts for n pairs.
        vms = []
        for i in range(6):
            vms.append(vm(f"big{i}", 0.6))
            vms.append(vm(f"small{i}", 0.4))
        plan = first_fit_decreasing(vms)
        assert plan.hosts_used == 6

    def test_bfd_not_worse_than_ffd_here(self):
        vms = [vm(f"v{i}", d) for i, d in enumerate([0.7, 0.6, 0.4, 0.3, 0.2, 0.2])]
        assert best_fit_decreasing(vms).hosts_used <= first_fit_decreasing(vms).hosts_used

    def test_static_reservations_beat_by_pooling(self):
        # The ablation's core claim in miniature: at scale, packing per-VM
        # peak reservations needs more hosts than Erlang-pooling the mean
        # load.  80 VMs reserving 0.45 CPU each -> 40 hosts; their MEAN
        # load (0.25 each = 20 erlangs) pools into ~30 servers at B=1%.
        # (At small scale the Erlang headroom dominates and packing wins —
        # statistical multiplexing is a scale phenomenon.)
        from repro.queueing.erlang import min_servers

        vms = [vm(f"v{i}", 0.45) for i in range(80)]
        packed = first_fit_decreasing(vms).hosts_used
        pooled = min_servers(80 * 0.25, 0.01)
        assert pooled < packed


class TestMigrationPlan:
    def test_no_moves_for_identical_plans(self):
        vms = [vm(f"v{i}", 0.5) for i in range(4)]
        plan = first_fit_decreasing(vms)
        assert migration_plan(plan, plan) == []

    def test_moves_detected(self):
        vms = [vm("a", 0.5), vm("b", 0.5), vm("c", 0.5), vm("d", 0.5)]
        current = first_fit_decreasing(vms)
        target = first_fit_decreasing(list(reversed(vms)))
        moves = migration_plan(current, target)
        for m in moves:
            assert current.assignments[m.vm] == m.source
            assert target.assignments[m.vm] == m.target

    def test_mismatched_vm_sets_rejected(self):
        a = first_fit_decreasing([vm("a", 0.5)])
        b = first_fit_decreasing([vm("b", 0.5)])
        with pytest.raises(ValueError):
            migration_plan(a, b)


class TestIncrementalBfd:
    """The ``into``/``allowed_hosts`` extensions behind re-consolidation."""

    def base_plan(self):
        return best_fit_decreasing([vm("a", 0.5), vm("b", 0.5), vm("c", 0.4)])

    def test_into_starts_from_a_copy(self):
        base = self.base_plan()
        before = dict(base.assignments)
        grown = best_fit_decreasing([vm("d", 0.3)], into=base)
        assert base.assignments == before  # the base plan is untouched
        assert set(grown.assignments) == {"a", "b", "c", "d"}
        for name in before:
            assert grown.assignments[name] == before[name]
        grown.validate()

    def test_into_rejects_duplicate_vms(self):
        with pytest.raises(ValueError, match="already placed"):
            best_fit_decreasing([vm("a", 0.2)], into=self.base_plan())

    def test_allowed_hosts_restricts_candidates(self):
        base = self.base_plan()
        survivors = [h for h in range(base.hosts_used) if h != 0]
        placed = best_fit_decreasing(
            [vm("d", 0.3)], into=base, allowed_hosts=survivors
        )
        assert placed.assignments["d"] in survivors

    def test_allowed_hosts_never_opens_new_hosts(self):
        base = best_fit_decreasing([vm("a", 0.9), vm("b", 0.9)])
        with pytest.raises(ValueError, match="no allowed host has room"):
            best_fit_decreasing(
                [vm("c", 0.5)], into=base,
                allowed_hosts=list(range(base.hosts_used)),
            )

    def test_allowed_hosts_must_exist(self):
        base = self.base_plan()
        with pytest.raises(ValueError, match="does not exist"):
            best_fit_decreasing(
                [vm("d", 0.1)], into=base, allowed_hosts=[base.hosts_used + 3]
            )

    def test_classic_behaviour_unchanged_without_keywords(self):
        vms = [vm("a", 0.5), vm("b", 0.5), vm("c", 0.4)]
        assert (
            best_fit_decreasing(vms).assignments
            == best_fit_decreasing(vms, into=None, allowed_hosts=None).assignments
        )


class TestPlanCopyAndRemove:
    def test_copy_is_independent(self):
        plan = best_fit_decreasing([vm("a", 0.5), vm("b", 0.5)])
        dup = plan.copy()
        dup.remove(vm("a", 0.5))
        assert "a" in plan.assignments
        assert "a" not in dup.assignments
        plan.validate()

    def test_remove_releases_demand_and_reports_host(self):
        a = vm("a", 0.6, 0.2)
        plan = best_fit_decreasing([a, vm("b", 0.5)])
        host = plan.remove(a)
        assert plan.host_loads[host].get(CPU, 0.0) == pytest.approx(
            sum(
                0.5 for n, h in plan.assignments.items() if h == host
            )
        )
        assert "a" not in plan.assignments
        # The freed room is reusable.
        again = best_fit_decreasing([vm("a2", 0.6, 0.2)], into=plan)
        again.validate()

    def test_remove_clamps_float_drift(self):
        a = vm("a", 0.3)
        plan = best_fit_decreasing([a])
        for _ in range(1000):
            host = plan.remove(a)
            best = best_fit_decreasing([a], into=plan)
            plan = best
        assert plan.host_loads[plan.assignments["a"]][CPU] >= 0.3 - 1e-9
        plan.validate()

    def test_remove_missing_vm_raises(self):
        plan = best_fit_decreasing([vm("a", 0.5)])
        with pytest.raises(KeyError):
            plan.remove(vm("ghost", 0.5))
