"""Unit tests for the fluid flow-control simulation."""

import numpy as np
import pytest

from repro.simulation.fluid import simulate_flow_control
from repro.virtualization.rainbow import (
    IdealFlow,
    ProportionalFlow,
    StaticPartition,
)


def antiphase_demands(periods=100, amp=0.8, level=2.0):
    phase = np.linspace(0.0, 4.0 * np.pi, periods)
    return {
        "web": level * (1.0 + amp * np.sin(phase)),
        "db": level * (1.0 - amp * np.sin(phase)),
    }


class TestSimulateFlowControl:
    def test_ideal_serves_everything_with_enough_capacity(self):
        result = simulate_flow_control(IdealFlow(), antiphase_demands(), 4.0)
        assert result.goodput_fraction == pytest.approx(1.0)
        assert result.loss_fraction == pytest.approx(0.0)

    def test_static_partition_clips_peaks(self):
        # 50/50 split of 4 units caps each service at 2.0, but anti-phase
        # peaks reach 3.6: static partitioning must lose work.
        result = simulate_flow_control(
            StaticPartition(fractions={"web": 0.5, "db": 0.5}),
            antiphase_demands(),
            4.0,
        )
        assert result.goodput_fraction < 0.95

    def test_flowing_beats_static(self):
        demands = antiphase_demands()
        static = simulate_flow_control(
            StaticPartition(fractions={"web": 0.5, "db": 0.5}), demands, 4.0
        )
        flowing = simulate_flow_control(ProportionalFlow(), demands, 4.0)
        assert flowing.goodput_fraction > static.goodput_fraction

    def test_reallocation_tax_costs_goodput(self):
        demands = antiphase_demands()
        free = simulate_flow_control(ProportionalFlow(), demands, 3.0)
        taxed = simulate_flow_control(
            ProportionalFlow(reallocation_tax=0.05), demands, 3.0
        )
        assert taxed.goodput_fraction < free.goodput_fraction

    def test_offered_work_bookkeeping(self):
        demands = {"a": np.array([1.0, 2.0]), "b": np.array([0.5, 0.5])}
        result = simulate_flow_control(IdealFlow(), demands, 10.0)
        assert result.offered_work["a"] == pytest.approx(3.0)
        assert result.served_work["a"] == pytest.approx(3.0)
        assert result.service_goodput("b") == pytest.approx(1.0)

    def test_zero_capacity_serves_nothing(self):
        result = simulate_flow_control(IdealFlow(), antiphase_demands(), 0.0)
        assert result.total_served == 0.0
        assert result.goodput_fraction == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_flow_control(IdealFlow(), {}, 1.0)
        with pytest.raises(ValueError):
            simulate_flow_control(
                IdealFlow(), {"a": np.array([1.0]), "b": np.array([1.0, 2.0])}, 1.0
            )
        with pytest.raises(ValueError):
            simulate_flow_control(IdealFlow(), {"a": np.array([-1.0])}, 1.0)
        with pytest.raises(ValueError):
            simulate_flow_control(IdealFlow(), {"a": np.array([1.0])}, -1.0)
