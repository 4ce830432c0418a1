"""Unit + validation tests for the delay-system simulation."""

import pytest

from repro.queueing.distributions import Deterministic, Exponential
from repro.queueing.mmn import mmn_delay_metrics
from repro.simulation.delay_sim import simulate_delay_system


class TestBasics:
    def test_light_load_no_waiting(self, rng):
        r = simulate_delay_system(0.5, Exponential(10.0), 4, 2000.0, rng)
        assert r.mean_wait == pytest.approx(0.0, abs=1e-3)
        assert r.probability_of_wait < 0.01
        assert r.mean_response_time == pytest.approx(0.1, rel=0.1)

    def test_conservation_of_completions(self, rng):
        r = simulate_delay_system(5.0, Exponential(2.0), 4, 1000.0, rng)
        # About lambda * (horizon - warmup) completions.
        assert r.completed == pytest.approx(5.0 * 900.0, rel=0.1)

    def test_utilization_tracks_offered_load(self, rng):
        r = simulate_delay_system(6.0, Exponential(2.0), 4, 2000.0, rng)
        assert r.utilization == pytest.approx(6.0 / 2.0 / 4.0, abs=0.05)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_delay_system(0.0, 1.0, 1, 10.0, rng)
        with pytest.raises(ValueError):
            simulate_delay_system(1.0, 1.0, 0, 10.0, rng)
        with pytest.raises(ValueError):
            simulate_delay_system(1.0, 1.0, 1, 0.0, rng)
        with pytest.raises(ValueError):
            simulate_delay_system(1.0, 1.0, 1, 10.0, rng, warmup_fraction=1.0)


class TestAgainstClosedForms:
    def test_mm1_response_time(self, rng):
        # M/M/1: W = 1/(mu - lambda) = 1/(5-2) s.
        r = simulate_delay_system(2.0, Exponential(5.0), 1, 30_000.0, rng)
        assert r.mean_response_time == pytest.approx(1.0 / 3.0, rel=0.05)

    def test_mmn_matches_erlang_c_metrics(self, rng):
        lam, mu, n = 8.0, 3.0, 4
        r = simulate_delay_system(lam, Exponential(mu), n, 30_000.0, rng)
        expected = mmn_delay_metrics(lam, mu, n)
        assert r.mean_wait == pytest.approx(expected.mean_wait, rel=0.1)
        assert r.mean_response_time == pytest.approx(
            expected.mean_response_time, rel=0.08
        )
        assert r.probability_of_wait == pytest.approx(
            expected.probability_of_wait, abs=0.05
        )
        assert r.mean_queue_length == pytest.approx(
            expected.mean_queue_length, rel=0.2
        )

    def test_md1_waits_half_of_mm1(self, rng):
        # Pollaczek-Khinchine: deterministic service halves the M/M/1 wait.
        lam, mu = 2.0, 4.0
        mm1 = simulate_delay_system(lam, Exponential(mu), 1, 40_000.0, rng)
        md1 = simulate_delay_system(lam, Deterministic(1.0 / mu), 1, 40_000.0, rng)
        assert md1.mean_wait == pytest.approx(mm1.mean_wait / 2.0, rel=0.15)
