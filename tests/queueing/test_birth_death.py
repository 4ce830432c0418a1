"""Unit tests for the birth–death chain cross-check."""

import numpy as np
import pytest

from oracles.birth_death import BirthDeathChain, loss_system_chain
from repro.queueing.erlang import erlang_b


class TestChainBasics:
    def test_stationary_sums_to_one(self):
        chain = BirthDeathChain([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        pi = chain.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= 0).all()

    def test_two_methods_agree(self):
        chain = BirthDeathChain([5.0, 4.0, 3.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(
            chain.stationary_distribution(),
            chain.stationary_distribution_linear(),
            atol=1e-10,
        )

    def test_extreme_rate_ratio_stays_finite(self):
        # Detailed balance in the log domain must survive huge ratios.
        chain = BirthDeathChain([1e8] * 50, [1e-4] * 50)
        pi = chain.stationary_distribution()
        assert np.isfinite(pi).all()
        assert pi.sum() == pytest.approx(1.0)

    def test_mean_state(self):
        # Symmetric random walk on {0, 1, 2}: uniform stationary, mean 1.
        chain = BirthDeathChain([1.0, 1.0], [1.0, 1.0])
        assert chain.mean_state() == pytest.approx(1.0)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            BirthDeathChain([1.0], [0.0])
        with pytest.raises(ValueError):
            BirthDeathChain([-1.0], [1.0])
        with pytest.raises(ValueError):
            BirthDeathChain([1.0, 2.0], [1.0])


class TestLossSystemEquivalence:
    @pytest.mark.parametrize("servers,lam,mu", [(1, 1.0, 1.0), (3, 2.0, 1.0), (5, 10.0, 3.0), (10, 4.0, 1.0)])
    def test_pi_n_equals_erlang_b(self, servers, lam, mu):
        # PASTA: the chain's all-busy probability IS the blocking probability.
        chain = loss_system_chain(lam, mu, servers)
        pi = chain.stationary_distribution()
        assert pi[-1] == pytest.approx(erlang_b(servers, lam / mu), rel=1e-9)

    def test_mean_state_equals_carried_load(self):
        lam, mu, n = 6.0, 2.0, 4
        rho = lam / mu
        chain = loss_system_chain(lam, mu, n)
        carried = rho * (1.0 - erlang_b(n, rho))
        assert chain.mean_state() == pytest.approx(carried, rel=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            loss_system_chain(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            loss_system_chain(0.0, 1.0, 2)
