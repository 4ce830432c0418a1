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
