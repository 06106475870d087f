"""Tests for the sampler diagnostics (tests.diagnostics)."""

import numpy as np
import pytest

from repro.core.schedule import linear_beta_schedule
from repro.ising.pbit import PBitMachine
from tests.diagnostics import (
    boltzmann_distance,
    empirical_distribution,
    energy_autocorrelation,
    flip_rate_profile,
    integrated_autocorrelation_time,
)
from tests.helpers import random_ising


class TestFlipRates:
    def test_rates_fall_along_anneal(self):
        model = random_ising(12, rng=0)
        machine = PBitMachine(model, rng=0)
        rates = flip_rate_profile(machine, linear_beta_schedule(10.0, 60))
        # High-temperature start flips ~half the spins; cold end flips few.
        assert rates[:5].mean() > rates[-5:].mean()
        assert rates[-1] <= 0.5

    def test_rates_bounded(self):
        machine = PBitMachine(random_ising(8, rng=1), rng=0)
        rates = flip_rate_profile(machine, linear_beta_schedule(5.0, 30))
        assert np.all(rates >= 0) and np.all(rates <= 1)

    def test_needs_two_sweeps(self):
        machine = PBitMachine(random_ising(4, rng=2), rng=0)
        with pytest.raises(ValueError):
            flip_rate_profile(machine, np.array([1.0]))


class TestAutocorrelation:
    def test_iid_noise_has_low_autocorrelation(self):
        rng = np.random.default_rng(0)
        rhos = energy_autocorrelation(rng.normal(size=5000), max_lag=10)
        assert np.max(np.abs(rhos)) < 0.1

    def test_slow_signal_has_high_autocorrelation(self):
        slow = np.sin(np.linspace(0, 4 * np.pi, 2000))
        rhos = energy_autocorrelation(slow, max_lag=5)
        assert rhos[0] > 0.9

    def test_constant_trace_is_zero(self):
        rhos = energy_autocorrelation(np.full(100, 3.0), max_lag=5)
        np.testing.assert_array_equal(rhos, np.zeros(5))

    def test_tau_of_iid_near_one(self):
        rng = np.random.default_rng(1)
        tau = integrated_autocorrelation_time(rng.normal(size=5000))
        assert tau == pytest.approx(1.0, abs=0.3)

    def test_tau_grows_for_correlated_chains(self):
        rng = np.random.default_rng(2)
        noise = rng.normal(size=3000)
        smooth = np.convolve(noise, np.ones(20) / 20, mode="valid")
        assert integrated_autocorrelation_time(smooth) > 3.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            energy_autocorrelation(np.array([1.0]))


class TestDistributionChecks:
    def test_empirical_distribution_sums_to_one(self):
        rng = np.random.default_rng(0)
        samples = rng.choice([-1.0, 1.0], size=(500, 4))
        dist = empirical_distribution(samples)
        assert dist.shape == (16,)
        assert dist.sum() == pytest.approx(1.0)

    def test_boltzmann_distance_of_good_sampler_is_small(self):
        model = random_ising(4, rng=3)
        machine = PBitMachine(model, rng=0)
        beta = 0.5
        samples = machine.sample_boltzmann(beta, num_sweeps=15000, burn_in=500)
        assert boltzmann_distance(model, samples, beta) < 0.05

    def test_boltzmann_distance_detects_wrong_beta(self):
        model = random_ising(4, rng=4)
        machine = PBitMachine(model, rng=0)
        samples = machine.sample_boltzmann(0.2, num_sweeps=8000, burn_in=200)
        near = boltzmann_distance(model, samples, 0.2)
        far = boltzmann_distance(model, samples, 5.0)
        assert far > near

    def test_beta_validation(self):
        model = random_ising(3, rng=5)
        with pytest.raises(ValueError):
            boltzmann_distance(model, np.ones((10, 3)), 0.0)

    def test_samples_must_be_2d(self):
        with pytest.raises(ValueError):
            empirical_distribution(np.ones(5))
