"""Unit + validation tests for the Engset finite-source loss model."""

import math

import numpy as np
import pytest

from repro.queueing.engset import (
    engset_call_congestion,
    engset_min_servers,
    engset_time_congestion,
)
from repro.queueing.erlang import erlang_b, min_servers


class TestTimeCongestion:
    def test_single_server_single_source(self):
        # One source, one server: never all-busy from the arrival's view,
        # but time congestion is a/(1+a) (fraction of time the source is
        # in service).
        a = 0.5
        assert engset_time_congestion(1, 1, a) == pytest.approx(a / (1.0 + a))

    def test_fewer_sources_than_servers_never_blocks(self):
        assert engset_time_congestion(5, 3, 1.0) == 0.0

    def test_zero_intensity(self):
        assert engset_time_congestion(3, 10, 0.0) == 0.0
        assert engset_time_congestion(0, 10, 0.0) == 1.0

    def test_monotone_in_servers(self):
        values = [engset_time_congestion(n, 20, 0.3) for n in range(1, 10)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_monotone_in_sources(self):
        values = [engset_time_congestion(4, s, 0.3) for s in (5, 10, 20, 40)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_large_population_stable(self):
        # Log-domain evaluation must survive S = 100k.
        value = engset_time_congestion(50, 100_000, 0.0004)
        assert 0.0 <= value <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            engset_time_congestion(-1, 5, 0.1)
        with pytest.raises(ValueError):
            engset_time_congestion(1, 0, 0.1)
        with pytest.raises(ValueError):
            engset_time_congestion(1, 5, -0.1)


class TestCallCongestion:
    def test_arrival_theorem(self):
        assert engset_call_congestion(3, 10, 0.4) == pytest.approx(
            engset_time_congestion(3, 9, 0.4)
        )

    def test_below_time_congestion(self):
        # Arriving customers see fewer competitors: B < E.
        assert engset_call_congestion(3, 10, 0.4) < engset_time_congestion(
            3, 10, 0.4
        )

    def test_population_at_most_servers_never_blocked(self):
        assert engset_call_congestion(5, 5, 10.0) == 0.0

    def test_converges_to_erlang_b_for_large_population(self):
        # S -> inf with S*a' -> rho: Engset -> Erlang B.
        servers, rho = 4, 2.0
        for sources in (50, 500, 5000):
            a = rho / (sources - rho)  # so that offered load ~ rho
            engset = engset_call_congestion(servers, sources, a)
            assert engset == pytest.approx(
                erlang_b(servers, rho), abs=0.02 if sources < 100 else 0.004
            )

    def test_finite_population_blocks_less_than_erlang(self):
        # Self-throttling: at the same nominal rho, Engset < Erlang B.
        servers, sources = 4, 10
        rho = 3.0
        a = rho / (sources - rho)
        assert engset_call_congestion(servers, sources, a) < erlang_b(servers, rho)


class TestMinServers:
    def test_definition_holds(self):
        n = engset_min_servers(30, 0.1, 0.01)
        assert engset_call_congestion(n, 30, 0.1) <= 0.01
        assert engset_call_congestion(n - 1, 30, 0.1) > 0.01

    def test_never_more_than_sources(self):
        assert engset_min_servers(6, 100.0, 0.001) <= 6

    def test_fewer_servers_than_erlang_sizing(self):
        # The infinite-source (paper) sizing over-provisions for small
        # populations: Engset needs no more servers.
        sources, rho, b = 12, 4.0, 0.01
        a = rho / (sources - rho)
        erlang_n = min_servers(rho, b)
        engset_n = engset_min_servers(sources, a, b)
        assert engset_n <= erlang_n

    def test_validation(self):
        with pytest.raises(ValueError):
            engset_min_servers(10, 0.1, 0.0)
        with pytest.raises(ValueError):
            engset_min_servers(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            engset_min_servers(10, -0.1, 0.1)


class TestAgainstClosedLoopSimulation:
    def test_engset_time_congestion_matches_birth_death(self):
        # Independent route: finite-source birth-death chain.
        from oracles.birth_death import BirthDeathChain

        servers, sources, alpha, mu = 3, 8, 0.2, 1.0
        births = [(sources - k) * alpha for k in range(servers)]
        deaths = [min(k + 1, servers) * mu for k in range(servers)]
        chain = BirthDeathChain(births, deaths)
        pi = chain.stationary_distribution()
        assert pi[-1] == pytest.approx(
            engset_time_congestion(servers, sources, alpha / mu), rel=1e-9
        )
