"""Unit tests for ServiceSpec / ModelInputs validation and derived loads."""

import math

import pytest

from repro.core.inputs import UNLIMITED_RATE, ModelInputs, ResourceKind, ServiceSpec

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK_IO


def make_web(rate=1200.0):
    return ServiceSpec(
        "web",
        rate,
        {CPU: 3360.0, DISK: 1420.0},
        {CPU: 0.65, DISK: 0.8},
    )


def make_db(rate=80.0):
    return ServiceSpec("db", rate, {CPU: 100.0}, {CPU: 0.9})


class TestServiceSpec:
    def test_offered_load_eq3(self):
        web = make_web(1200.0)
        assert web.offered_load(DISK) == pytest.approx(1200.0 / 1420.0)
        assert web.offered_load(CPU) == pytest.approx(1200.0 / 3360.0)

    def test_untouched_resource_has_zero_load(self):
        db = make_db()
        assert db.mu(DISK) == UNLIMITED_RATE
        assert db.offered_load(DISK) == 0.0

    def test_effective_mu_applies_impact(self):
        web = make_web()
        assert web.effective_mu(CPU) == pytest.approx(3360.0 * 0.65)
        assert web.effective_mu(DISK) == pytest.approx(1420.0 * 0.8)

    def test_effective_mu_infinite_stays_infinite(self):
        assert math.isinf(make_db().effective_mu(DISK))

    def test_default_impact_is_one(self):
        s = ServiceSpec("s", 1.0, {CPU: 10.0})
        assert s.impact(CPU) == 1.0
        assert s.effective_mu(CPU) == 10.0

    def test_with_arrival_rate(self):
        s = make_web().with_arrival_rate(50.0)
        assert s.arrival_rate == 50.0
        assert s.name == "web"
        assert s.impact(CPU) == 0.65

    def test_without_virtualization_overhead(self):
        s = make_web().without_virtualization_overhead()
        assert s.impact(CPU) == 1.0
        assert s.impact(DISK) == 1.0

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ServiceSpec("", 1.0, {CPU: 1.0})

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            ServiceSpec("s", -1.0, {CPU: 1.0})

    def test_rejects_no_resources(self):
        with pytest.raises(ValueError):
            ServiceSpec("s", 1.0, {})

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            ServiceSpec("s", 1.0, {CPU: 0.0})

    def test_rejects_out_of_range_impact(self):
        with pytest.raises(ValueError):
            ServiceSpec("s", 1.0, {CPU: 1.0}, {CPU: 0.0})
        with pytest.raises(ValueError):
            ServiceSpec("s", 1.0, {CPU: 1.0}, {CPU: 100.0})

    def test_allows_impact_above_one(self):
        # The DB service's multi-VM speedup: a > 1 is legal.
        s = ServiceSpec("db", 1.0, {CPU: 100.0}, {CPU: 1.85})
        assert s.effective_mu(CPU) == pytest.approx(185.0)

    def test_rejects_impact_for_missing_resource(self):
        with pytest.raises(ValueError):
            ServiceSpec("s", 1.0, {CPU: 1.0}, {DISK: 0.5})

    def test_rejects_non_resource_keys(self):
        with pytest.raises(TypeError):
            ServiceSpec("s", 1.0, {"cpu": 1.0})


class TestModelInputs:
    def test_total_arrival_rate(self):
        inputs = ModelInputs((make_web(1200.0), make_db(80.0)), 0.01)
        assert inputs.total_arrival_rate == pytest.approx(1280.0)

    def test_resources_union_in_stable_order(self):
        inputs = ModelInputs((make_web(), make_db()), 0.01)
        assert inputs.resources == (CPU, DISK)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            ModelInputs((make_web(), make_web()), 0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ModelInputs((), 0.01)

    def test_rejects_bad_loss_probability(self):
        with pytest.raises(ValueError):
            ModelInputs((make_web(),), 0.0)
        with pytest.raises(ValueError):
            ModelInputs((make_web(),), 1.0)

    def test_service_lookup(self):
        inputs = ModelInputs((make_web(), make_db()), 0.01)
        assert inputs.service("db").name == "db"
        with pytest.raises(KeyError):
            inputs.service("missing")


class TestConsolidatedLoad:
    """The Eq. 4/5 mixture — both the paper-literal and offered readings."""

    def test_paper_mode_matches_eq5(self):
        # rho'_c = lambda^2 / sum(lambda_i mu_ic a_ic)  (both touch CPU).
        inputs = ModelInputs((make_web(1200.0), make_db(80.0)), 0.01)
        lam = 1280.0
        denom = 1200.0 * 3360.0 * 0.65 + 80.0 * 100.0 * 0.9
        assert inputs.consolidated_load(CPU, "paper") == pytest.approx(
            lam * lam / denom
        )

    def test_paper_mode_infinite_rate_erases_constraint(self):
        # The paper's mu_di ~ inf: DB's infinite disk rate dominates the
        # arithmetic mixture, so disk imposes no constraint at all.
        inputs = ModelInputs((make_web(1200.0), make_db(80.0)), 0.01)
        assert inputs.consolidated_load(DISK, "paper") == 0.0

    def test_offered_mode_is_sum_of_virtualized_loads(self):
        inputs = ModelInputs((make_web(1200.0), make_db(80.0)), 0.01)
        expected_cpu = 1200.0 / (3360.0 * 0.65) + 80.0 / (100.0 * 0.9)
        expected_disk = 1200.0 / (1420.0 * 0.8)
        assert inputs.consolidated_load(CPU, "offered") == pytest.approx(expected_cpu)
        assert inputs.consolidated_load(DISK, "offered") == pytest.approx(
            expected_disk
        )

    def test_offered_never_below_paper(self):
        # AM >= HM: the paper's mixture rate is optimistic, i.e. its load
        # is never above the offered load.
        inputs = ModelInputs((make_web(1200.0), make_db(80.0)), 0.01)
        for res in (CPU, DISK):
            assert inputs.consolidated_load(res, "paper") <= inputs.consolidated_load(
                res, "offered"
            ) + 1e-12

    def test_modes_agree_for_identical_services(self):
        # With equal mu*a everywhere AM == HM.
        a = ServiceSpec("a", 10.0, {CPU: 100.0})
        b = ServiceSpec("b", 30.0, {CPU: 100.0})
        inputs = ModelInputs((a, b), 0.01)
        assert inputs.consolidated_load(CPU, "paper") == pytest.approx(
            inputs.consolidated_load(CPU, "offered")
        )
        assert inputs.consolidated_load(CPU, "paper") == pytest.approx(0.4)

    def test_zero_traffic_service_is_ignored(self):
        # A zero-rate service must not erase constraints via its inf rates.
        idle_db = make_db(0.0)
        inputs = ModelInputs((make_web(1200.0), idle_db), 0.01)
        assert inputs.consolidated_load(DISK, "paper") > 0.0

    def test_unknown_mode_rejected(self):
        inputs = ModelInputs((make_web(),), 0.01)
        with pytest.raises(ValueError):
            inputs.consolidated_load(CPU, "bogus")

    def test_without_virtualization_overhead(self):
        inputs = ModelInputs((make_web(1200.0), make_db(80.0)), 0.01)
        ideal = inputs.without_virtualization_overhead()
        expected = 1280.0**2 / (1200.0 * 3360.0 + 80.0 * 100.0)
        assert ideal.consolidated_load(CPU, "paper") == pytest.approx(expected)
