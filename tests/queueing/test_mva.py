"""Unit + validation tests for the exact-MVA oracle."""

import pytest

from oracles.mva import exact_mva, throughput_bounds


class TestExactMva:
    def test_single_station_no_think_saturates_immediately(self):
        # Z = 0, one station: every customer queues there, X = 1/D for all n.
        for n in (1, 2, 10):
            result = exact_mva({"db": 0.25}, think_time=0.0, population=n)
            assert result.throughput == pytest.approx(4.0)
            assert result.queue_lengths["db"] == pytest.approx(float(n))

    def test_population_one_is_cycle_time_inverse(self):
        result = exact_mva({"a": 0.2, "b": 0.3}, think_time=1.5, population=1)
        assert result.throughput == pytest.approx(1.0 / 2.0)
        assert result.response_times["a"] == pytest.approx(0.2)

    def test_zero_population(self):
        result = exact_mva({"a": 1.0}, think_time=1.0, population=0)
        assert result.throughput == 0.0

    def test_throughput_monotone_in_population(self):
        xs = [
            exact_mva({"db": 0.1}, 7.0, n).throughput for n in (1, 10, 50, 200)
        ]
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_respects_asymptotic_bounds(self):
        demands = {"web": 0.02, "db": 0.1}
        for n in (1, 5, 20, 100, 500):
            result = exact_mva(demands, 7.0, n)
            light, saturation = throughput_bounds(demands, 7.0, n)
            assert result.throughput <= min(light, saturation) + 1e-9

    def test_approaches_saturation_bound(self):
        demands = {"db": 0.1}
        result = exact_mva(demands, 7.0, 500)
        assert result.throughput == pytest.approx(10.0, rel=0.01)

    def test_light_load_approaches_interactive_law(self):
        demands = {"db": 0.1}
        result = exact_mva(demands, 7.0, 1)
        assert result.throughput == pytest.approx(1.0 / 7.1)

    def test_bottleneck_identified(self):
        result = exact_mva({"web": 0.02, "db": 0.3}, 1.0, 50)
        assert result.bottleneck == "db"

    def test_utilization_law(self):
        demands = {"web": 0.02, "db": 0.1}
        result = exact_mva(demands, 7.0, 40)
        utils = result.utilization(demands)
        assert utils["db"] == pytest.approx(result.throughput * 0.1)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in utils.values())

    def test_closed_loop_offered_wips_matches_tpcw_model(self):
        # The TpcwWorkload offered-rate law is MVA's light-load regime.
        from repro.workloads.tpcw import TpcwWorkload

        w = TpcwWorkload(emulated_browsers=100, think_time=7.0, response_time=0.1)
        result = exact_mva({"db": 0.1}, 7.0, 100)
        # At 100 EBs demand 0.1: bound min(100/7.1, 10) = 10; closed-loop law
        # offered = 14.08 is an overestimate past saturation — MVA refines it.
        assert result.throughput <= w.offered_wips
        assert result.throughput == pytest.approx(10.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_mva({}, 1.0, 1)
        with pytest.raises(ValueError):
            exact_mva({"a": 0.0}, 1.0, 1)
        with pytest.raises(ValueError):
            exact_mva({"a": 1.0}, -1.0, 1)
        with pytest.raises(ValueError):
            exact_mva({"a": 1.0}, 1.0, -1)
        with pytest.raises(ValueError):
            throughput_bounds({}, 1.0, 1)

