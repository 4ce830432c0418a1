"""Unit tests for the Erlang formulas — the model's mathematical core."""

import math

import pytest

from repro.queueing.erlang import (
    erlang_b,
    erlang_b_continuous,
    erlang_b_derivative_n,
    erlang_b_log,
    erlang_c,
    max_load_for_blocking,
    min_servers,
    min_servers_continuous,
    offered_load,
)

# Classic textbook values (Gross & Harris tables): (n, rho, E_n(rho)).
TEXTBOOK = [
    (1, 1.0, 0.5),
    (2, 1.0, 0.2),
    (3, 1.0, 1.0 / 16.0),
    (1, 2.0, 2.0 / 3.0),
    (2, 2.0, 0.4),
    (5, 3.0, 0.110054),
    (10, 5.0, 0.018385),
]


class TestOfferedLoad:
    def test_basic_ratio(self):
        assert offered_load(30.0, 10.0) == pytest.approx(3.0)

    def test_infinite_service_rate_is_zero_load(self):
        assert offered_load(100.0, math.inf) == 0.0

    def test_rejects_negative_arrivals(self):
        with pytest.raises(ValueError):
            offered_load(-1.0, 1.0)

    def test_rejects_nonpositive_service(self):
        with pytest.raises(ValueError):
            offered_load(1.0, 0.0)


class TestErlangB:
    @pytest.mark.parametrize("n,rho,expected", TEXTBOOK)
    def test_textbook_values(self, n, rho, expected):
        assert erlang_b(n, rho) == pytest.approx(expected, rel=1e-4)

    def test_zero_servers_blocks_everything(self):
        assert erlang_b(0, 2.5) == 1.0

    def test_zero_load_never_blocks(self):
        assert erlang_b(5, 0.0) == 0.0
        assert erlang_b(0, 0.0) == 1.0  # degenerate: no servers at all

    def test_monotone_decreasing_in_n(self):
        values = [erlang_b(n, 4.0) for n in range(0, 20)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_increasing_in_rho(self):
        values = [erlang_b(5, rho) for rho in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            erlang_b(-1, 1.0)
        with pytest.raises(ValueError):
            erlang_b(1, -1.0)

    def test_deprecated_names_still_import(self):
        # The API redesign keeps every pre-vectorization name importable,
        # from both the module and the package root.
        import repro.queueing as package
        import repro.queueing.erlang as module

        for name in module.__all__:
            assert hasattr(package, name), name
        assert package.erlang_b(3, 2.0) == module.erlang_b(3, 2.0)


class TestErlangBVariants:
    @pytest.mark.parametrize("n,rho,expected", TEXTBOOK)
    def test_log_domain_matches(self, n, rho, expected):
        assert erlang_b_log(n, rho) == pytest.approx(expected, rel=1e-4)
        assert erlang_b_log(n, rho) == pytest.approx(erlang_b(n, rho), rel=1e-9)

    @pytest.mark.parametrize("n,rho,expected", TEXTBOOK)
    def test_continuous_matches_at_integers(self, n, rho, expected):
        assert erlang_b_continuous(n, rho) == pytest.approx(expected, rel=1e-4)
        assert erlang_b_continuous(n, rho) == pytest.approx(erlang_b(n, rho), rel=1e-7)

    def test_log_domain_handles_huge_load(self):
        # rho^n/n! overflows float64 at these sizes; log domain must not.
        b = erlang_b_log(100_000, 99_000.0)
        assert 0.0 < b < 1.0
        assert b == pytest.approx(erlang_b(100_000, 99_000.0), rel=1e-6)

    def test_continuous_interpolates_monotonically(self):
        vals = [erlang_b_continuous(n, 3.0) for n in (2.0, 2.25, 2.5, 2.75, 3.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_continuous_zero_load(self):
        assert erlang_b_continuous(0.0, 0.0) == 1.0
        assert erlang_b_continuous(2.5, 0.0) == 0.0

    def test_derivative_is_negative(self):
        assert erlang_b_derivative_n(5.0, 4.0) < 0.0


class TestErlangC:
    def test_relation_to_erlang_b(self):
        n, rho = 6, 4.0
        b = erlang_b(n, rho)
        expected = n * b / (n - rho * (1.0 - b))
        assert erlang_c(n, rho) == pytest.approx(expected)

    def test_unstable_system_always_queues(self):
        assert erlang_c(2, 2.0) == 1.0
        assert erlang_c(2, 5.0) == 1.0

    def test_exceeds_erlang_b(self):
        # Queueing probability > blocking probability for the same system.
        assert erlang_c(5, 3.0) > erlang_b(5, 3.0)

    def test_rejects_zero_servers(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)


class TestMinServers:
    def test_definition_holds(self):
        for rho in (0.3, 1.0, 5.0, 42.0):
            n = min_servers(rho, 0.01)
            assert erlang_b(n, rho) <= 0.01
            assert n == 0 or erlang_b(n - 1, rho) > 0.01

    def test_zero_load_needs_no_servers(self):
        assert min_servers(0.0, 0.01) == 0

    def test_stricter_target_needs_more_servers(self):
        assert min_servers(10.0, 0.001) >= min_servers(10.0, 0.1)

    def test_monotone_in_load(self):
        counts = [min_servers(rho, 0.01) for rho in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            min_servers(1.0, 0.0)
        with pytest.raises(ValueError):
            min_servers(1.0, 1.0)

    @pytest.mark.parametrize("rho", [0.01, 0.455, 0.87, 3.0, 27.5, 500.0])
    @pytest.mark.parametrize("target", [0.001, 0.01, 0.1])
    def test_continuous_inversion_agrees(self, rho, target):
        assert min_servers_continuous(rho, target) == min_servers(rho, target)

    def test_continuous_inversion_large_scale(self):
        # A pooled mega-datacenter load: bisection stays fast and correct.
        n = min_servers_continuous(5000.0, 0.01)
        assert erlang_b_log(n, 5000.0) <= 0.01
        assert erlang_b_log(n - 1, 5000.0) > 0.01


class TestNonFiniteInputs:
    """Regression: NaN/inf inputs must raise, not return nonsense.

    Before validation was added, ``min_servers(nan, B)`` silently returned
    0 servers (NaN fails every comparison, so the scan loop never ran) and
    ``min_servers(inf, B)`` ground toward the 50M-server iteration ceiling.
    Either would poison a whole sweep — and with the shared cache, poison
    it *memoized*.  These tests pin the ValueError contract.
    """

    BAD_LOADS = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("rho", BAD_LOADS)
    def test_min_servers_rejects_nonfinite_load(self, rho):
        with pytest.raises(ValueError, match="finite"):
            min_servers(rho, 0.01)

    @pytest.mark.parametrize("rho", BAD_LOADS)
    def test_min_servers_continuous_rejects_nonfinite_load(self, rho):
        with pytest.raises(ValueError, match="finite"):
            min_servers_continuous(rho, 0.01)

    @pytest.mark.parametrize("rho", BAD_LOADS)
    def test_erlang_b_rejects_nonfinite_load(self, rho):
        with pytest.raises(ValueError, match="finite"):
            erlang_b(3, rho)
        with pytest.raises(ValueError, match="finite"):
            erlang_b_log(3, rho)
        with pytest.raises(ValueError, match="finite"):
            erlang_b_continuous(3.0, rho)
        with pytest.raises(ValueError, match="finite"):
            erlang_c(3, rho)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_nonfinite_targets_rejected(self, target):
        with pytest.raises(ValueError, match="finite"):
            min_servers(1.0, target)
        with pytest.raises(ValueError, match="finite"):
            min_servers_continuous(1.0, target)
        with pytest.raises(ValueError, match="finite"):
            max_load_for_blocking(3, target)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.2, 1.7])
    def test_boundary_targets_rejected_everywhere(self, target):
        # B=0 is unreachable with finite servers, B=1 needs none: both are
        # ill-posed inversion targets and must fail fast with a message.
        with pytest.raises(ValueError, match="blocking target"):
            min_servers(2.0, target)
        with pytest.raises(ValueError, match="blocking target"):
            min_servers_continuous(2.0, target)
        with pytest.raises(ValueError, match="blocking target"):
            max_load_for_blocking(4, target)

    def test_offered_load_rejects_nonfinite_rates(self):
        with pytest.raises(ValueError, match="finite"):
            offered_load(math.inf, 1.0)
        with pytest.raises(ValueError, match="finite"):
            offered_load(math.nan, 1.0)
        with pytest.raises(ValueError):
            offered_load(1.0, math.nan)

    def test_error_messages_name_the_offender(self):
        with pytest.raises(ValueError, match="offered load"):
            min_servers(math.nan, 0.01)
        with pytest.raises(ValueError, match="blocking target"):
            min_servers(1.0, math.nan)


class TestMaxLoad:
    def test_inverse_of_min_servers(self):
        n, target = 4, 0.01
        rho_max = max_load_for_blocking(n, target)
        assert erlang_b(n, rho_max) <= target
        assert erlang_b(n, rho_max * 1.001) > target

    def test_case_study_boundary(self):
        # The paper's Group 2 DB island: 4 servers at B=1% afford ~0.87 erl.
        assert max_load_for_blocking(4, 0.01) == pytest.approx(0.869, abs=5e-3)

    def test_monotone_in_servers(self):
        loads = [max_load_for_blocking(n, 0.01) for n in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(loads, loads[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            max_load_for_blocking(0, 0.01)
        with pytest.raises(ValueError):
            max_load_for_blocking(3, 1.5)
