"""Unit tests for the httperf-style sweep driver."""

import numpy as np
import pytest

from repro.workloads.httperf import RateSweep, SweepResult
from repro.workloads.specweb import SPECWEB_FILESET, WebServiceModel


def model_fn(vms=0):
    model = WebServiceModel.for_fileset(SPECWEB_FILESET)
    return lambda rates, rng: model.reply_rate(rates, vms)


class TestSweepResult:
    def test_peak_and_saturation(self):
        r = SweepResult(
            request_rates=np.array([1.0, 2.0, 3.0, 4.0]),
            reply_rates=np.array([1.0, 2.0, 1.8, 1.7]),
        )
        assert r.peak_throughput == 2.0
        assert r.saturation_rate == 2.0

    def test_goodput_fraction(self):
        r = SweepResult(
            request_rates=np.array([0.0, 2.0, 4.0]),
            reply_rates=np.array([0.0, 2.0, 3.0]),
        )
        np.testing.assert_allclose(r.goodput_fraction(), [1.0, 1.0, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepResult(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            SweepResult(np.empty(0), np.empty(0))


class TestRateSweep:
    def test_noiseless_run_matches_model(self, rng):
        sweep = RateSweep(model_fn())
        rates = RateSweep.default_grid(1420.0, 10)
        result = sweep.run(rates, rng, counting_noise=False)
        model = WebServiceModel.for_fileset(SPECWEB_FILESET)
        np.testing.assert_allclose(result.reply_rates, model.reply_rate(rates, 0))

    def test_counting_noise_shrinks_with_duration(self, rng_factory):
        rates = RateSweep.default_grid(1420.0, 8)
        model = WebServiceModel.for_fileset(SPECWEB_FILESET)
        clean = model.reply_rate(rates, 0)
        short = RateSweep(model_fn(), duration_per_point=1.0).run(
            rates, rng_factory(1)
        )
        long = RateSweep(model_fn(), duration_per_point=500.0).run(
            rates, rng_factory(2)
        )
        err_short = np.abs(short.reply_rates - clean).mean()
        err_long = np.abs(long.reply_rates - clean).mean()
        assert err_long < err_short

    def test_default_grid_spans_overload(self):
        grid = RateSweep.default_grid(1000.0, 20)
        assert grid.min() < 1000.0 < grid.max()
        assert grid.max() == pytest.approx(2500.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RateSweep(model_fn(), duration_per_point=0.0)
        sweep = RateSweep(model_fn())
        with pytest.raises(ValueError):
            sweep.run(np.array([-1.0]), rng)
        with pytest.raises(ValueError):
            sweep.run(np.empty(0), rng)
        with pytest.raises(ValueError):
            RateSweep.default_grid(0.0)
        with pytest.raises(ValueError):
            RateSweep.default_grid(10.0, points=1)

    def test_mismatched_throughput_fn_rejected(self, rng):
        sweep = RateSweep(lambda rates, g: np.array([1.0]))
        with pytest.raises(ValueError):
            sweep.run(np.array([1.0, 2.0]), rng)
