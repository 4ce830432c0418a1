"""Shared fixtures for the test suite."""

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/*.json from the current code instead "
        "of diffing against it (review the diff before committing)",
    )


@pytest.fixture
def update_golden(request):
    """Whether this run should rewrite golden snapshots (--update-golden)."""
    return request.config.getoption("--update-golden")


@pytest.fixture(autouse=True)
def _fresh_erlang_cache():
    """Start every test with a cold shared Erlang cache.

    The cache is process-global, so without this a test's hit/miss
    behaviour (and anything downstream, like which instrumented solvers
    actually run) would depend on suite ordering.
    """
    from repro.queueing.cache import shared_cache

    shared_cache().clear()
    yield


@pytest.fixture
def rng():
    """Deterministic RNG; every test using randomness gets the same seed."""
    return np.random.default_rng(20090101)


@pytest.fixture
def rng_factory():
    """Factory for independent deterministic streams within one test."""

    def make(seed: int = 0):
        return np.random.default_rng(900 + seed)

    return make
