"""Property suite: the batched kernels agree with the scalar path.

ISSUE 7 satellite: hypothesis-driven agreement of vectorized
``erlang_b``/``min_servers`` with the scalar implementations over random
grids — exact equality (the lockstep kernels execute the scalar IEEE-754
sequence) — including edge shapes (0-d, length-1, ragged broadcast) and
the n=0 / rho→0 / B→1 boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing import erlang
from repro.queueing import vectorized as vec

# Loads/targets spanning the paper's operating range plus the boundaries:
# rho→0 via tiny positive loads and exact zeros mixed into grids below.
loads = st.floats(min_value=0.0, max_value=300.0,
                  allow_nan=False, allow_infinity=False)
positive_loads = st.floats(min_value=1e-9, max_value=300.0,
                           allow_nan=False, allow_infinity=False)
targets = st.floats(min_value=1e-7, max_value=0.999999,
                    allow_nan=False, allow_infinity=False)
server_counts = st.integers(min_value=0, max_value=500)


class TestErlangBAgreement:
    @given(grid=st.lists(st.tuples(server_counts, loads),
                         min_size=1, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_random_grids_agree_exactly(self, grid):
        n = np.array([g[0] for g in grid])
        rho = np.array([g[1] for g in grid])
        batched = vec.erlang_b(n, rho)
        scalar = [erlang.erlang_b(int(a), float(r)) for a, r in zip(n, rho)]
        assert batched.tolist() == scalar

    @given(n=server_counts, rho=loads)
    @settings(max_examples=150, deadline=None)
    def test_0d_arrays_match_scalars(self, n, rho):
        out = vec.erlang_b(np.asarray(n), np.asarray(rho))
        assert out.shape == ()
        assert float(out) == erlang.erlang_b(n, rho)

    @given(n=server_counts, rho=loads)
    @settings(max_examples=100, deadline=None)
    def test_length_1_arrays(self, n, rho):
        out = vec.erlang_b(np.array([n]), np.array([rho]))
        assert out.shape == (1,)
        assert out[0] == erlang.erlang_b(n, rho)

    @given(ns=st.lists(server_counts, min_size=1, max_size=12),
           rhos=st.lists(loads, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_ragged_broadcast_plane(self, ns, rhos):
        n_col = np.array(ns)[:, None]     # (k, 1)
        rho_row = np.array(rhos)          # (m,)
        plane = vec.erlang_b(n_col, rho_row)
        assert plane.shape == (len(ns), len(rhos))
        for i, n in enumerate(ns):
            for j, rho in enumerate(rhos):
                assert plane[i, j] == erlang.erlang_b(n, rho)

    @given(rho=loads)
    @settings(max_examples=60, deadline=None)
    def test_n0_boundary(self, rho):
        out = vec.erlang_b(np.array([0]), np.array([rho]))
        assert out[0] == erlang.erlang_b(0, rho) == 1.0

    @given(n=server_counts)
    @settings(max_examples=60, deadline=None)
    def test_rho_zero_boundary(self, n):
        out = vec.erlang_b(np.array([n]), np.array([0.0]))
        assert out[0] == (1.0 if n == 0 else 0.0)


class TestMinServersAgreement:
    @given(grid=st.lists(st.tuples(loads, targets),
                         min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_random_grids_agree_exactly(self, grid):
        rho = np.array([g[0] for g in grid])
        target = np.array([g[1] for g in grid])
        batched = vec.min_servers(rho, target)
        scalar = [
            erlang.min_servers(float(r), float(t)) for r, t in zip(rho, target)
        ]
        assert batched.tolist() == scalar

    @given(rho=loads, target=targets)
    @settings(max_examples=120, deadline=None)
    def test_0d_arrays_match_scalars(self, rho, target):
        out = vec.min_servers(np.asarray(rho), np.asarray(target))
        assert out.shape == ()
        assert int(out) == erlang.min_servers(rho, target)

    @given(rhos=st.lists(positive_loads, min_size=1, max_size=10),
           tgts=st.lists(targets, min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_ragged_broadcast_plane(self, rhos, tgts):
        plane = vec.min_servers(np.array(rhos)[:, None], np.array(tgts))
        assert plane.shape == (len(rhos), len(tgts))
        for i, rho in enumerate(rhos):
            for j, target in enumerate(tgts):
                assert plane[i, j] == erlang.min_servers(rho, target)

    @given(target=targets)
    @settings(max_examples=60, deadline=None)
    def test_rho_zero_needs_no_servers(self, target):
        out = vec.min_servers(np.array([0.0]), np.array([target]))
        assert out[0] == 0 == erlang.min_servers(0.0, target)

    @given(rho=positive_loads)
    @settings(max_examples=60, deadline=None)
    def test_target_near_one_boundary(self, rho):
        # B→1: E_1(rho) = rho/(1+rho) < 1 for finite rho, so one server
        # always suffices at a target this close to certainty.
        target = 0.999999999
        out = vec.min_servers(np.array([rho]), np.array([target]))
        assert out[0] == erlang.min_servers(rho, target)
        assert out[0] <= 1

    @given(grid=st.lists(st.tuples(positive_loads, targets),
                         min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_continuous_inversion_agrees_with_scan(self, grid):
        rho = np.array([g[0] for g in grid])
        target = np.array([g[1] for g in grid])
        batched = vec.min_servers(rho, target)
        bisected = [
            erlang.min_servers_continuous(float(r), float(t))
            for r, t in zip(rho, target)
        ]
        assert batched.tolist() == bisected
