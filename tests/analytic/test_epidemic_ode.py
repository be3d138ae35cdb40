"""Analytic model unit tests."""

import math

import numpy as np
import pytest

from repro.analytic.epidemic_ode import (
    delivery_cdf,
    direct_mean_delay,
    infected_count_markov,
    infected_fraction,
    mean_delivery_delay,
)


class TestInfectedFraction:
    def test_starts_at_one_over_n(self):
        assert infected_fraction(0.0, 10, 1e-4) == pytest.approx(0.1)

    def test_saturates_at_one(self):
        assert infected_fraction(1e9, 10, 1e-4) == pytest.approx(1.0)

    def test_monotone_increasing(self):
        t = np.linspace(0, 50_000, 100)
        vals = infected_fraction(t, 12, 1e-5)
        assert np.all(np.diff(vals) >= 0)

    def test_logistic_midpoint(self):
        """I = N/2 when t = ln(N-1) / (beta N)."""
        n, beta = 12, 1e-5
        t_half = math.log(n - 1) / (beta * n)
        assert infected_fraction(t_half, n, beta) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            infected_fraction(1.0, 1, 1e-4)
        with pytest.raises(ValueError):
            infected_fraction(1.0, 5, 0.0)
        with pytest.raises(ValueError):
            infected_fraction(-1.0, 5, 1e-4)


class TestMarkovChain:
    def test_initial_distribution(self):
        p = infected_count_markov(0.0, 6, 1e-4)
        assert p[0] == pytest.approx(1.0)

    def test_distribution_sums_to_one(self):
        p = infected_count_markov(10_000.0, 6, 1e-5)
        assert p.sum() == pytest.approx(1.0)

    def test_absorbs_at_full_infection(self):
        p = infected_count_markov(1e7, 6, 1e-4)
        assert p[-1] == pytest.approx(1.0, abs=1e-3)

    def test_mean_tracks_fluid_limit(self):
        """The Markov mean and the ODE agree reasonably at mid-spread."""
        n, beta = 12, 2e-5
        t = 10_000.0
        p = infected_count_markov(t, n, beta)
        markov_mean = float(np.dot(p, np.arange(1, n + 1))) / n
        fluid = float(infected_fraction(t, n, beta))
        assert markov_mean == pytest.approx(fluid, rel=0.15)


class TestDeliveryDelay:
    def test_cdf_bounds(self):
        n, beta = 12, 1e-5
        assert delivery_cdf(0.0, n, beta) == pytest.approx(0.0, abs=1e-12)
        assert delivery_cdf(1e9, n, beta) == pytest.approx(1.0)

    def test_cdf_monotone(self):
        t = np.linspace(0, 100_000, 50)
        vals = delivery_cdf(t, 12, 1e-5)
        assert np.all(np.diff(vals) >= 0)

    def test_mean_formula(self):
        assert mean_delivery_delay(12, 1e-5) == pytest.approx(
            math.log(12) / (1e-5 * 11)
        )

    def test_median_consistent_with_cdf(self):
        n, beta = 12, 1e-5
        # invert: CDF(t_med) = 0.5 -> t_med = ln(n+1... solve numerically
        t = np.linspace(0, 1e6, 200_000)
        cdf = delivery_cdf(t, n, beta)
        t_med = t[int(np.searchsorted(cdf, 0.5))]
        assert delivery_cdf(t_med, n, beta) == pytest.approx(0.5, abs=1e-3)

    def test_direct_delay_and_speedup(self):
        assert direct_mean_delay(1e-5) == pytest.approx(1e5)
        # the speedup of relaying over waiting is (N − 1) / ln N
        speedup = direct_mean_delay(1e-5) / mean_delivery_delay(12, 1e-5)
        assert speedup == pytest.approx(11 / math.log(12))
        # epidemic relaying is faster than direct transmission
        assert mean_delivery_delay(12, 1e-5) < direct_mean_delay(1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_delivery_delay(1, 1e-5)
        with pytest.raises(ValueError):
            direct_mean_delay(0.0)
