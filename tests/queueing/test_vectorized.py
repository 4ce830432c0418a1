"""Batched Erlang core: values, shapes, validation parity, throughput.

The vectorized module is the canonical implementation behind the scalar
wrappers, so these tests pin the three legs of the compatibility
contract: textbook values, scalar/array bit-identity on dense grids, and
``ValueError`` text identical to the scalar entry points.  The scalar-only
log-domain and continuous variants are checked against the batched exact
kernels.  The scalar fuzz/property layer lives in
``test_vectorized_properties.py``.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from repro.queueing import erlang
from repro.queueing import vectorized as vec

TEXTBOOK = [
    (1, 1.0, 0.5),
    (2, 1.0, 0.2),
    (3, 1.0, 1.0 / 16.0),
    (1, 2.0, 2.0 / 3.0),
    (2, 2.0, 0.4),
    (5, 3.0, 0.110054),
    (10, 5.0, 0.018385),
]


class TestErlangBArrays:
    def test_textbook_values_in_one_batch(self):
        n = np.array([row[0] for row in TEXTBOOK])
        rho = np.array([row[1] for row in TEXTBOOK])
        expected = [row[2] for row in TEXTBOOK]
        assert vec.erlang_b(n, rho) == pytest.approx(expected, rel=1e-4)

    def test_bit_identical_to_scalar_over_dense_grid(self):
        rng = np.random.default_rng(2009)
        n = rng.integers(0, 400, 3000)
        rho = rng.uniform(0.0, 250.0, 3000)
        batched = vec.erlang_b(n, rho)
        scalar = [erlang.erlang_b(int(a), float(r)) for a, r in zip(n, rho)]
        assert batched.tolist() == scalar  # ==, not approx: same IEEE ops

    def test_broadcasting_2d(self):
        n = np.arange(0, 30)[:, None]
        rho = np.array([0.5, 5.0, 50.0])
        grid = vec.erlang_b(n, rho)
        assert grid.shape == (30, 3)
        assert grid[7, 1] == erlang.erlang_b(7, 5.0)

    def test_zero_load_column(self):
        out = vec.erlang_b(np.array([0, 1, 5]), np.zeros(3))
        assert out.tolist() == [1.0, 0.0, 0.0]

    def test_scalar_inputs_return_python_float(self):
        out = vec.erlang_b(5, 3.0)
        assert isinstance(out, float)
        assert out == erlang.erlang_b(5, 3.0)


class TestMinServersArrays:
    def test_bit_identical_to_scalar_over_dense_grid(self):
        rng = np.random.default_rng(2009)
        rho = rng.uniform(0.0, 200.0, 3000)
        target = rng.uniform(1e-6, 0.5, 3000)
        batched = vec.min_servers(rho, target)
        scalar = [
            erlang.min_servers(float(r), float(t)) for r, t in zip(rho, target)
        ]
        assert batched.tolist() == scalar

    def test_continuous_inversion_matches_exact_scan(self):
        rng = np.random.default_rng(7)
        rho = rng.uniform(0.001, 5000.0, 800)
        target = rng.uniform(1e-5, 0.2, 800)
        bisected = [
            vec.min_servers_continuous(float(r), float(t))
            for r, t in zip(rho, target)
        ]
        assert bisected == vec.min_servers(rho, target).tolist()

    def test_broadcast_plane(self):
        rho = np.linspace(1.0, 80.0, 40)[:, None]
        target = np.array([1e-2, 1e-3, 1e-4])
        plane = vec.min_servers(rho, target)
        assert plane.shape == (40, 3)
        # Monotone in both axes: more load or tighter loss → more servers.
        assert (np.diff(plane, axis=0) >= 0).all()
        assert (np.diff(plane, axis=1) >= 0).all()

    def test_scalar_inputs_return_python_int(self):
        out = vec.min_servers(20.0, 0.01)
        assert isinstance(out, int)
        assert out == erlang.min_servers(20.0, 0.01)

    @pytest.mark.parametrize(
        "invert",
        [
            vec.min_servers,
            lambda rho, t: vec.min_servers(np.array([1.0, rho]), t),
            vec.min_servers_continuous,
        ],
        ids=["recurrence", "lockstep", "bisection"],
    )
    def test_load_beyond_cap_raises_before_scanning(self, invert):
        # Carried load rho * (1 - B) never exceeds n, so no n under the
        # 5e7 cap meets B = 0.01 at rho = 1e9; the scan is not started.
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError) as info:
            invert(1e9, 0.01)
        assert time.perf_counter() - t0 < 0.5
        assert str(info.value) == (
            "min_servers did not converge below 0.01 within 50000000 servers "
            "(rho=1000000000.0)"
        )

    def test_bisection_brackets_answers_just_under_cap(self, monkeypatch):
        # Regression: the bracket doubled hi from rho past the cap and
        # raised "failed to bracket" although the answer (~1150 servers
        # for rho = 1000, B = 1e-6) lies below a 1500-server cap.
        expected = vec.min_servers(1000.0, 1e-6)
        monkeypatch.setattr(vec, "_MAX_SERVERS", 1500)
        assert expected < 1500
        assert vec.min_servers_continuous(1000.0, 1e-6) == expected

    def test_bisection_answer_above_cap_still_unsolvable(self, monkeypatch):
        # rho * (1 - B) passes the pre-scan bound, but the answer does not
        # fit under the cap: the bracket stops at the cap and says so.
        monkeypatch.setattr(vec, "_MAX_SERVERS", 1500)
        with pytest.raises(RuntimeError) as info:
            vec.min_servers_continuous(1480.0, 1e-6)
        assert str(info.value) == (
            "min_servers did not converge below 1e-06 within 1500 servers "
            "(rho=1480.0)"
        )

    def test_million_point_grid_under_60s(self):
        # ISSUE 7 acceptance: 1,000,000-point (rho, B) grid < 60 s.
        rho = np.linspace(0.5, 120.0, 1_000_000)
        t0 = time.perf_counter()
        sizes = vec.min_servers(rho, 0.01)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"1M-point grid took {elapsed:.1f}s"
        assert sizes.shape == (1_000_000,)
        # Spot-check the stitched answers against the scalar scan.
        for i in (0, 123_456, 999_999):
            assert sizes[i] == erlang.min_servers(float(rho[i]), 0.01)


class TestLogAndContinuousArrays:
    def test_log_agrees_with_recurrence(self):
        rng = np.random.default_rng(11)
        n = rng.integers(0, 300, 500)
        rho = rng.uniform(0.01, 150.0, 500)
        exact = vec.erlang_b(n, rho)
        logd = np.array([vec.erlang_b_log(int(a), float(r)) for a, r in zip(n, rho)])
        mask = exact > 1e-280  # below that, denormal noise dominates
        assert logd[mask] == pytest.approx(exact[mask], rel=1e-8)

    def test_log_scalar_path_matches_historical_logsumexp(self):
        assert erlang.erlang_b_log is vec.erlang_b_log  # one definition
        for n, rho, _ in TEXTBOOK:
            k = np.arange(n + 1)
            log_terms = k * math.log(rho) - special.gammaln(k + 1)
            historical = float(np.exp(log_terms[-1] - special.logsumexp(log_terms)))
            assert vec.erlang_b_log(n, rho) == historical

    def test_continuous_matches_scalar_everywhere(self):
        # Between integers the extension lies inside the bracket the exact
        # recurrence gives at floor(n) and ceil(n) (it is decreasing in n).
        assert erlang.erlang_b_continuous is vec.erlang_b_continuous
        rng = np.random.default_rng(13)
        n = rng.uniform(0.0, 200.0, 500)
        rho = rng.uniform(0.0, 150.0, 500)
        upper = vec.erlang_b(np.floor(n).astype(np.int64), rho)
        lower = vec.erlang_b(np.ceil(n).astype(np.int64), rho)
        for a, r, lo, hi in zip(n, rho, lower, upper):
            value = vec.erlang_b_continuous(float(a), float(r))
            assert lo * (1 - 1e-9) <= value <= hi * (1 + 1e-9)

    def test_offered_load_broadcasts(self):
        lam = np.array([30.0, 100.0])
        mu = np.array([[10.0], [math.inf]])
        out = vec.offered_load(lam, mu)
        assert out.shape == (2, 2)
        assert out[0].tolist() == [3.0, 10.0]
        assert out[1].tolist() == [0.0, 0.0]


class TestValidationParity:
    """Array entry points raise the exact scalar ValueError text."""

    def _message(self, fn, *args):
        with pytest.raises(ValueError) as excinfo:
            fn(*args)
        return str(excinfo.value)

    def test_nan_load(self):
        scalar = self._message(erlang.min_servers, math.nan, 0.01)
        batched = self._message(
            vec.min_servers, np.array([1.0, math.nan]), 0.01
        )
        assert scalar == batched

    def test_negative_load(self):
        scalar = self._message(erlang.erlang_b, 3, -2.0)
        batched = self._message(vec.erlang_b, 3, np.array([1.0, -2.0]))
        assert scalar == batched

    def test_target_out_of_range(self):
        scalar = self._message(erlang.min_servers, 1.0, 1.5)
        batched = self._message(vec.min_servers, 1.0, np.array([0.5, 1.5]))
        assert scalar == batched

    def test_target_nan(self):
        scalar = self._message(erlang.min_servers, 1.0, math.nan)
        batched = self._message(
            vec.min_servers, np.ones(3), np.array([0.1, math.nan, 0.2])
        )
        assert scalar == batched

    def test_negative_server_count(self):
        scalar = self._message(erlang.erlang_b, -2, 3.0)
        batched = self._message(vec.erlang_b, np.array([1, -2]), 3.0)
        assert scalar == batched

    def test_validation_order_target_before_load(self):
        # min_servers has always validated the target first; both entry
        # points must agree when both inputs are bad.
        scalar = self._message(erlang.min_servers, math.nan, 2.0)
        batched = self._message(
            vec.min_servers, np.array([math.nan]), np.array([2.0])
        )
        assert scalar == batched
        assert "blocking target" in scalar

    def test_fractional_server_count_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            vec.erlang_b(np.array([1.5]), 3.0)
