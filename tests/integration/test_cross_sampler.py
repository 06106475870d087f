"""Cross-sampler consistency: all substrates agree on the same physics."""

import numpy as np
import pytest

from repro.core.schedule import linear_beta_schedule
from repro.ising.exhaustive import brute_force_ground_state
from repro.ising.parallel_tempering import parallel_tempering
from repro.ising.pbit import PBitMachine
from repro.ising.sparse import ChromaticPBitMachine, SparseIsingModel
from tests.diagnostics import boltzmann_distance
from tests.helpers import random_ising
from tests.sa import simulated_annealing


class TestGroundStateAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_all_samplers_find_the_same_ground_state(self, seed):
        """Gibbs p-bits, Metropolis SA, PT and chromatic Gibbs must all
        reach the exact ground energy of the same small model."""
        model = random_ising(10, rng=seed, density=0.4)
        _, ground = brute_force_ground_state(model)
        schedule = linear_beta_schedule(8.0, 300)

        pbit = min(
            PBitMachine(model, rng=trial).anneal(schedule).best_energy
            for trial in range(3)
        )
        metro = min(
            simulated_annealing(model, schedule, rng=trial).best_energy
            for trial in range(3)
        )
        pt = parallel_tempering(
            model, num_sweeps=300, num_replicas=8, beta_max=8.0, rng=seed
        ).best_energy
        chromatic = min(
            ChromaticPBitMachine(
                SparseIsingModel.from_dense(model), rng=trial
            ).anneal(schedule).best_energy
            for trial in range(3)
        )

        for found in (pbit, metro, pt, chromatic):
            assert found == pytest.approx(ground, abs=1e-9)


class TestDistributionAgreement:
    def test_chromatic_gibbs_samples_boltzmann(self):
        """Color-synchronous updates are exact block Gibbs: the stationary
        distribution must match eq. 11 like the sequential sampler."""
        dense = random_ising(4, rng=7, density=0.5)
        sparse_model = SparseIsingModel.from_dense(dense)
        machine = ChromaticPBitMachine(sparse_model, rng=0)
        beta = 0.6
        states = []
        schedule = np.full(1, beta)
        state = None
        # Collect a long chain of single-sweep snapshots.
        for _ in range(12000):
            result = machine.anneal(schedule, initial=state)
            state = result.last_sample
            states.append(state.copy())
        distance = boltzmann_distance(dense, np.array(states[500:]), beta)
        assert distance < 0.05

    def test_gibbs_and_metropolis_share_stationary_distribution(self):
        """Both chains target eq. 11; their empirical laws must agree."""
        model = random_ising(4, rng=8)
        beta = 0.5
        gibbs_samples = PBitMachine(model, rng=0).sample_boltzmann(
            beta, num_sweeps=12000, burn_in=500
        )
        gibbs_dist = boltzmann_distance(model, gibbs_samples, beta)

        metro_states = []
        state = None
        for _ in range(12000):
            result = simulated_annealing(
                model, np.full(1, beta), rng=None, initial=state
            )
            state = result.last_sample
            metro_states.append(state.copy())
        metro_dist = boltzmann_distance(model, np.array(metro_states[500:]), beta)
        assert gibbs_dist < 0.06
        assert metro_dist < 0.06
