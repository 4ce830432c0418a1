"""Unit tests for the TPC-W-like DB service model."""

import numpy as np
import pytest

from repro.virtualization.impact import DB_CPU_IMPACT
from repro.workloads.tpcw import DbServiceModel, TpcwWorkload


class TestTpcwWorkload:
    def test_offered_wips_closed_loop_law(self):
        w = TpcwWorkload(emulated_browsers=710, think_time=7.0, response_time=0.1)
        assert w.offered_wips == pytest.approx(100.0)

    def test_zero_browsers(self):
        assert TpcwWorkload(0).offered_wips == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TpcwWorkload(-1)
        with pytest.raises(ValueError):
            TpcwWorkload(1, think_time=0.0)


class TestDbServiceModel:
    def test_native_capacity_is_mu_dc(self):
        assert DbServiceModel().capacity(0) == 100.0

    def test_single_vm_roughly_native(self):
        # Fig. 8: native and one VM deliver about the same (the software
        # bottleneck), both ~half of multi-VM.
        model = DbServiceModel()
        assert model.capacity(1) == pytest.approx(100.0, rel=0.05)

    def test_multi_vm_speedup(self):
        model = DbServiceModel()
        assert model.capacity(4) > 1.5 * model.capacity(1)
        assert model.capacity(9) < 1.85 * 100.0 * 1.01

    def test_vcpu_scaling(self):
        model = DbServiceModel()
        full = model.capacity(2, vcpus=6)
        half = model.capacity(2, vcpus=3)
        assert half == pytest.approx(full / 2.0)

    def test_extra_vcpus_capped(self):
        model = DbServiceModel()
        assert model.capacity(2, vcpus=12) == model.capacity(2, vcpus=6)

    def test_pinning_beats_floating(self):
        model = DbServiceModel()
        assert model.capacity(2, pinned=True) > model.capacity(2, pinned=False)

    def test_wips_curve_saturates(self):
        model = DbServiceModel()
        ebs = np.array([50, 200, 800, 1600, 3200])
        wips = model.wips_curve(ebs, vms=2)
        assert (np.diff(wips) >= -1e-9).all()
        assert wips[-1] == pytest.approx(model.capacity(2), rel=1e-6)

    def test_closed_loop_linear_regime(self):
        model = DbServiceModel()
        w = TpcwWorkload(71)  # offered = 10 WIPS, far below capacity
        assert model.wips(w, vms=2) == pytest.approx(10.0)

    def test_measured_impact_factors_track_published(self, rng):
        model = DbServiceModel()
        a = model.measured_impact_factors([1, 2, 4, 8])
        expected = [DB_CPU_IMPACT.impact(v) for v in (1, 2, 4, 8)]
        np.testing.assert_allclose(a, expected, rtol=1e-6)

    def test_measure_noise_bounded(self, rng):
        model = DbServiceModel()
        ebs = np.arange(100, 2000, 200)
        noisy = model.measure_wips_curve(ebs, 2, rng, rel_noise=0.02)
        clean = model.wips_curve(ebs, 2)
        assert np.abs(noisy - clean).max() / clean.max() < 0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            DbServiceModel(native_capacity=0.0)
        with pytest.raises(ValueError):
            DbServiceModel(db_vcpus=0)
        model = DbServiceModel()
        with pytest.raises(ValueError):
            model.capacity(-1)
        with pytest.raises(ValueError):
            model.capacity(2, vcpus=0)


class TestTpcwAgainstMva:
    """The DbServiceModel's WIPS law is the closed-network MVA shape."""

    def test_wips_curve_bounded_by_mva_bounds(self):
        from oracles.mva import throughput_bounds

        model = DbServiceModel()
        # One server's capacity at v=2 VMs maps to a per-interaction
        # demand 1/capacity at the DB station.
        cap = model.capacity(2)
        demand = {"db": 1.0 / cap}
        for ebs in (50, 200, 800, 2000):
            wips = model.wips(TpcwWorkload(ebs), vms=2)
            light, saturation = throughput_bounds(demand, 7.1, ebs)
            assert wips <= min(light, saturation) * 1.01

    def test_saturated_wips_equals_mva_limit(self):
        from oracles.mva import exact_mva

        model = DbServiceModel()
        cap = model.capacity(2)
        mva = exact_mva({"db": 1.0 / cap}, think_time=7.0, population=3000)
        assert model.wips(TpcwWorkload(3000), vms=2) == pytest.approx(
            mva.throughput, rel=0.02
        )
