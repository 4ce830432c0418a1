"""Unit tests for the packaged M/M/n delay metrics."""

import pytest

from repro.queueing.erlang import erlang_c
from repro.queueing.mmn import mmn_delay_metrics


class TestDelayMetrics:
    def test_little_law_consistency(self):
        # L_q = lambda * W_q (Little's law for the queue).
        m = mmn_delay_metrics(arrival_rate=8.0, service_rate=3.0, servers=4)
        assert m.mean_queue_length == pytest.approx(8.0 * m.mean_wait, rel=1e-9)

    def test_probability_of_wait_is_erlang_c(self):
        m = mmn_delay_metrics(8.0, 3.0, 4)
        assert m.probability_of_wait == pytest.approx(erlang_c(4, 8.0 / 3.0))

    def test_response_is_wait_plus_service(self):
        m = mmn_delay_metrics(8.0, 3.0, 4)
        assert m.mean_response_time == pytest.approx(m.mean_wait + 1.0 / 3.0)

    def test_mm1_closed_form(self):
        # M/M/1: W = 1/(mu - lambda).
        m = mmn_delay_metrics(2.0, 5.0, 1)
        assert m.mean_response_time == pytest.approx(1.0 / 3.0)

    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            mmn_delay_metrics(10.0, 1.0, 5)

    def test_rejects_zero_servers(self):
        with pytest.raises(ValueError):
            mmn_delay_metrics(1.0, 1.0, 0)

    def test_wait_explodes_near_saturation(self):
        light = mmn_delay_metrics(1.0, 1.0, 4)
        heavy = mmn_delay_metrics(3.9, 1.0, 4)
        assert heavy.mean_wait > 50.0 * light.mean_wait


class TestWaitDistribution:
    def test_tail_at_zero_is_probability_of_wait(self):
        from repro.queueing.mmn import wait_tail_probability

        lam, mu, n = 8.0, 3.0, 4
        m = mmn_delay_metrics(lam, mu, n)
        assert wait_tail_probability(lam, mu, n, 0.0) == pytest.approx(
            m.probability_of_wait
        )

    def test_tail_decreasing_and_integrates_to_mean(self):
        from repro.queueing.mmn import wait_tail_probability

        lam, mu, n = 8.0, 3.0, 4
        ts = [0.0, 0.1, 0.5, 1.0, 2.0]
        tails = [wait_tail_probability(lam, mu, n, t) for t in ts]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        # Integral of the tail equals the mean wait (numerical check).
        import numpy as np

        grid = np.linspace(0.0, 10.0, 20_001)
        tail = np.array([wait_tail_probability(lam, mu, n, t) for t in grid])
        mean = float(np.trapezoid(tail, grid))
        assert mean == pytest.approx(
            mmn_delay_metrics(lam, mu, n).mean_wait, rel=1e-3
        )

    def test_percentile_inverts_tail(self):
        from repro.queueing.mmn import wait_percentile, wait_tail_probability

        lam, mu, n = 8.0, 3.0, 4
        t95 = wait_percentile(lam, mu, n, 0.95)
        assert wait_tail_probability(lam, mu, n, t95) == pytest.approx(0.05)

    def test_light_load_percentile_zero(self):
        from repro.queueing.mmn import wait_percentile

        # Almost nobody waits: the 90th percentile wait is exactly 0.
        assert wait_percentile(0.5, 10.0, 4, 0.9) == 0.0

    def test_validation(self):
        from repro.queueing.mmn import wait_percentile, wait_tail_probability

        with pytest.raises(ValueError):
            wait_tail_probability(1.0, 1.0, 2, -1.0)
        with pytest.raises(ValueError):
            wait_percentile(1.0, 1.0, 2, 1.0)
