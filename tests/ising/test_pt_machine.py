"""Tests for the PT machine adapter (repro.ising.pt_machine)."""

import numpy as np
import pytest

from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.core.schedule import linear_beta_schedule
from repro.ising.exhaustive import brute_force_ground_state
from repro.ising.pt_machine import PTMachine
from tests.helpers import random_ising, tiny_knapsack_problem


class TestPTMachine:
    def test_interface(self):
        model = random_ising(8, rng=0)
        machine = PTMachine(model, rng=0)
        assert machine.num_spins == 8
        machine.set_fields(np.zeros(8), offset=2.0)
        assert machine.model.offset == 2.0

    def test_anneal_result_consistency(self):
        model = random_ising(8, rng=1)
        machine = PTMachine(model, rng=0)
        result = machine.anneal(linear_beta_schedule(6.0, 80))
        assert result.last_energy == pytest.approx(
            model.energy(result.last_sample), abs=1e-6
        )
        assert result.best_energy <= result.last_energy + 1e-9

    def test_finds_ground_state(self):
        model = random_ising(10, rng=2)
        _, ground = brute_force_ground_state(model)
        machine = PTMachine(model, rng=0, num_replicas=8)
        result = machine.anneal(linear_beta_schedule(8.0, 250))
        assert result.best_energy == pytest.approx(ground, abs=1e-9)

    def test_best_read_out(self):
        model = random_ising(8, rng=3)
        machine = PTMachine(model, rng=0, read_out="best")
        result = machine.anneal(linear_beta_schedule(6.0, 60))
        assert result.last_energy == pytest.approx(result.best_energy)

    def test_rejects_bad_read_out(self):
        with pytest.raises(ValueError):
            PTMachine(random_ising(4, rng=0), read_out="median")

    def test_rejects_empty_schedule(self):
        machine = PTMachine(random_ising(4, rng=0))
        with pytest.raises(ValueError):
            machine.anneal(np.array([]))

    def test_set_fields_shape_checked(self):
        machine = PTMachine(random_ising(4, rng=0))
        with pytest.raises(ValueError):
            machine.set_fields(np.zeros(5))


class TestSaimWithPT:
    def test_saim_pt_solves_knapsack(self):
        """SAIM driving parallel tempering as its inner minimizer."""
        config = SaimConfig(num_iterations=25, mcs_per_run=80)

        def factory(model, rng):
            return PTMachine(model, rng=rng, num_replicas=6)

        saim = SaimEngine(config, machine_factory=factory)
        result = saim.solve(tiny_knapsack_problem(), rng=1)
        assert result.found_feasible
        assert result.best_cost == pytest.approx(-8.0)

    def test_saim_pt_with_best_read_out(self):
        config = SaimConfig(num_iterations=20, mcs_per_run=60)

        def factory(model, rng):
            return PTMachine(model, rng=rng, num_replicas=6, read_out="best")

        result = SaimEngine(config, machine_factory=factory).solve(
            tiny_knapsack_problem(), rng=1
        )
        assert result.found_feasible
