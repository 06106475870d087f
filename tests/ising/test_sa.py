"""Tests for the Metropolis simulated-annealing oracle (tests.sa)."""

import numpy as np
import pytest

from repro.core.schedule import linear_beta_schedule
from repro.ising.exhaustive import brute_force_ground_state
from repro.ising.model import IsingModel
from tests.helpers import random_ising
from tests.sa import simulated_annealing


class TestSimulatedAnnealing:
    def test_energies_consistent(self):
        model = random_ising(8, rng=0)
        result = simulated_annealing(model, linear_beta_schedule(5.0, 100), rng=0)
        assert result.last_energy == pytest.approx(
            model.energy(result.last_sample), abs=1e-6
        )
        assert result.best_energy == pytest.approx(
            model.energy(result.best_sample), abs=1e-6
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_finds_ground_state(self, seed):
        model = random_ising(10, rng=seed)
        _, ground = brute_force_ground_state(model)
        best = min(
            simulated_annealing(
                model, linear_beta_schedule(8.0, 300), rng=50 + trial
            ).best_energy
            for trial in range(5)
        )
        assert best == pytest.approx(ground, abs=1e-9)

    def test_deterministic_given_seed(self):
        model = random_ising(7, rng=5)
        schedule = linear_beta_schedule(4.0, 60)
        a = simulated_annealing(model, schedule, rng=9)
        b = simulated_annealing(model, schedule, rng=9)
        np.testing.assert_array_equal(a.last_sample, b.last_sample)

    def test_record_energy(self):
        model = random_ising(6, rng=6)
        result = simulated_annealing(
            model, linear_beta_schedule(3.0, 40), rng=0, record_energy=True
        )
        assert result.energy_trace.shape == (40,)
        assert result.energy_trace[-1] == pytest.approx(result.last_energy)

    def test_high_beta_is_descent(self):
        # At very large beta, Metropolis only accepts improving flips, so the
        # energy trace must be non-increasing.
        model = random_ising(10, rng=7)
        result = simulated_annealing(
            model, np.full(50, 1e6), rng=1, record_energy=True
        )
        diffs = np.diff(result.energy_trace)
        assert np.all(diffs <= 1e-9)

    def test_initial_state_respected(self):
        start = np.array([1.0, -1.0, 1.0, -1.0])
        # Fields aligned with the start state: every flip strictly raises the
        # energy, so at huge beta nothing moves.
        model = IsingModel(np.zeros((4, 4)), start.copy())
        result = simulated_annealing(model, np.full(1, 1e9), rng=0, initial=start)
        np.testing.assert_array_equal(result.last_sample, start)

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError):
            simulated_annealing(random_ising(4, rng=0), np.array([]))
