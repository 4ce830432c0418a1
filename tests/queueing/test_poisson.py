"""Unit tests for the Poisson arrival processes."""

import numpy as np
import pytest

from repro.analysis.stats import exponential_ks_test, poisson_dispersion
from repro.queueing.poisson import (
    interarrival_times,
    poisson_arrivals,
    superpose,
    superpose_marked,
    thinned_poisson_arrivals,
)


class TestHomogeneous:
    def test_sorted_within_horizon(self, rng):
        t = poisson_arrivals(10.0, 100.0, rng)
        assert (np.diff(t) >= 0).all()
        assert t.min() >= 0.0 and t.max() < 100.0

    def test_count_matches_rate(self, rng):
        t = poisson_arrivals(50.0, 1000.0, rng)
        assert len(t) == pytest.approx(50_000, rel=0.05)

    def test_zero_rate_empty(self, rng):
        assert poisson_arrivals(0.0, 10.0, rng).size == 0

    def test_interarrivals_are_exponential(self, rng):
        t = poisson_arrivals(5.0, 2000.0, rng)
        gaps = np.diff(t)
        assert exponential_ks_test(gaps, 5.0) > 0.01

    def test_counts_are_poisson_dispersed(self, rng):
        t = poisson_arrivals(20.0, 500.0, rng)
        counts, _ = np.histogram(t, bins=np.arange(0.0, 501.0, 1.0))
        assert poisson_dispersion(counts) == pytest.approx(1.0, abs=0.15)

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError):
            poisson_arrivals(-1.0, 10.0, rng)
        with pytest.raises(ValueError):
            poisson_arrivals(1.0, 0.0, rng)


class TestThinned:
    def test_constant_rate_reduces_to_homogeneous(self, rng):
        t = thinned_poisson_arrivals(lambda x: np.full_like(x, 7.0), 7.0, 500.0, rng)
        assert len(t) == pytest.approx(3500, rel=0.1)

    def test_sinusoidal_rate_modulates_counts(self, rng):
        rate = lambda x: 10.0 * (1.0 + np.sin(2 * np.pi * x / 100.0)) / 2.0
        t = thinned_poisson_arrivals(rate, 10.0, 1000.0, rng)
        # Quarter around the sine peak (t=25 mod 100) should far exceed the
        # quarter around the trough (t=75 mod 100).
        phase = t % 100.0
        peak = ((phase > 12.5) & (phase < 37.5)).sum()
        trough = ((phase > 62.5) & (phase < 87.5)).sum()
        assert peak > 2.0 * trough

    def test_rejects_rate_exceeding_bound(self, rng):
        with pytest.raises(ValueError):
            thinned_poisson_arrivals(
                lambda x: np.full_like(x, 20.0), 10.0, 100.0, rng
            )


class TestSuperposition:
    def test_merge_preserves_counts_and_order(self, rng):
        a = poisson_arrivals(3.0, 100.0, rng)
        b = poisson_arrivals(7.0, 100.0, rng)
        merged = superpose(a, b)
        assert merged.size == a.size + b.size
        assert (np.diff(merged) >= 0).all()

    def test_superposed_stream_is_poisson_with_summed_rate(self, rng):
        # The consolidated-workload assumption: sum of Poissons is Poisson.
        streams = [poisson_arrivals(lam, 500.0, rng) for lam in (2.0, 5.0, 13.0)]
        merged = superpose(*streams)
        gaps = np.diff(merged)
        assert exponential_ks_test(gaps, 20.0) > 0.01

    def test_empty_inputs(self):
        assert superpose().size == 0
        assert superpose(np.empty(0), np.empty(0)).size == 0

    def test_marked_merge_tracks_origin(self, rng):
        a = poisson_arrivals(5.0, 50.0, rng)
        b = poisson_arrivals(5.0, 50.0, rng)
        marked = superpose_marked([a, b])
        assert len(marked) == a.size + b.size
        np.testing.assert_allclose(np.sort(marked.for_service(0)), a)
        np.testing.assert_allclose(np.sort(marked.for_service(1)), b)

    def test_marked_merge_sorted(self, rng):
        marked = superpose_marked(
            [poisson_arrivals(2.0, 30.0, rng), poisson_arrivals(9.0, 30.0, rng)]
        )
        assert (np.diff(marked.times) >= 0).all()


class TestInterarrivals:
    def test_prepends_zero(self):
        gaps = interarrival_times(np.array([1.0, 3.0, 6.0]))
        np.testing.assert_allclose(gaps, [1.0, 2.0, 3.0])

    def test_empty(self):
        assert interarrival_times(np.empty(0)).size == 0
