"""Float32 vs float64 golden parity of the solve stack.

The ``dtype`` knob trades precision for kernel throughput; these tests pin
what the trade is allowed to cost:

- on the paper's Fig. 2 toy Lagrangian and a QKP instance, a float32 solve
  must find the **same best feasible cost** as the float64 reference (the
  constrained objective is evaluated exactly in both cases — only the
  sampler's arithmetic changes);
- the float32-stored Hamiltonian must agree with the float64 one to
  ``rtol = 1e-4`` on every state's energy;
- integer-weight models are exactly representable in float32, so their
  reported energies are **exact** in both dtypes (unconditionally), and on
  the seeded runs below the trajectories are bit-identical too.  (The
  trajectory claim is seed-pinned rather than universal: the per-flip
  noise *thresholds* are continuous values that float32 rounds, and a
  decision could in principle flip if a rounded threshold straddled an
  integer input field — measure-zero per draw.)
"""

import numpy as np
import pytest

import repro
from repro.core.lagrangian import saim_lagrangian
from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.core.schedule import linear_beta_schedule
from repro.ising.model import IsingModel
from repro.ising.pbit import PBitMachine

DTYPES = ("float64", "float32")


def toy_problem() -> ConstrainedProblem:
    """Fig. 2's toy Lagrangian: min -(x-1)^2 over 3-bit x s.t. x = 2.

    Same construction as ``bench_fig2_toy_lagrange.py``; OPT = -1 at
    x = 2 (binary 010).
    """
    weights = np.array([1.0, 2.0, 4.0])
    gram = np.outer(weights, weights)
    quad = -gram
    np.fill_diagonal(quad, 0.0)
    linear = -np.diag(gram).copy() + 2.0 * weights
    return ConstrainedProblem(
        quadratic=quad,
        linear=linear,
        offset=-1.0,
        equalities=LinearConstraints(weights[None, :], np.array([2.0])),
        name="fig2-toy",
    )


def qkp_lagrangian_ising(num_items=25, rng=3) -> IsingModel:
    """The Ising model SAIM anneals for a QKP instance (lambda = 0)."""
    instance = repro.generate_qkp(num_items, 0.5, rng=rng)
    return saim_lagrangian(instance.to_problem()).base_ising


def integer_ising(n, seed, scale=3) -> IsingModel:
    """Random dense Ising model with small integer couplings/fields."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(-scale, scale + 1, size=(n, n)).astype(float), k=1)
    return IsingModel(
        upper + upper.T, rng.integers(-scale, scale + 1, size=n).astype(float)
    )


class TestGoldenParity:
    """Same best feasible cost from both precisions on reference problems."""

    def test_fig2_toy_same_best_feasible_cost(self):
        reports = {
            dtype: repro.solve(
                toy_problem(), num_iterations=30, mcs_per_run=80, eta=1.0,
                rng=5, dtype=dtype,
            )
            for dtype in DTYPES
        }
        for report in reports.values():
            assert report.feasible
        assert reports["float64"].best_cost == reports["float32"].best_cost
        assert reports["float64"].best_cost == pytest.approx(-1.0)  # OPT

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_qkp_same_best_feasible_cost(self, seed):
        instance = repro.generate_qkp(25, 0.5, rng=3)
        reports = {
            dtype: repro.solve(
                instance, num_iterations=40, mcs_per_run=150, eta=80.0,
                eta_decay="sqrt", normalize_step=True, num_replicas=4,
                rng=seed, dtype=dtype,
            )
            for dtype in DTYPES
        }
        for report in reports.values():
            assert report.feasible
        assert reports["float64"].best_cost == reports["float32"].best_cost
        np.testing.assert_array_equal(
            reports["float64"].best_x, reports["float32"].best_x
        )


class TestStoredHamiltonianTolerance:
    """Float32 coefficient storage moves energies by at most rtol 1e-4."""

    @pytest.mark.parametrize("machine_cls", [PBitMachine])
    def test_qkp_lagrangian_energies_within_rtol(self, machine_cls):
        model = qkp_lagrangian_ising()
        exact = machine_cls(model, rng=0).model
        rounded = machine_cls(model, rng=0, dtype="float32").model
        rng = np.random.default_rng(1)
        for _ in range(50):
            spins = rng.choice([-1.0, 1.0], size=model.num_spins)
            assert rounded.energy(spins) == pytest.approx(
                exact.energy(spins), rel=1e-4
            )

    def test_reported_energies_within_rtol_of_exact(self):
        """A float32 *run*'s read-outs stay rtol-1e-4 true energies."""
        model = qkp_lagrangian_ising()
        machine = PBitMachine(model, rng=4, dtype="float32")
        batch = machine.anneal_many(linear_beta_schedule(10.0, 120), 8)
        hamiltonian = machine.model
        for r in range(8):
            assert batch.last_energies[r] == pytest.approx(
                hamiltonian.energy(batch.last_samples[r]), rel=1e-4, abs=1e-3
            )
            assert batch.best_energies[r] == pytest.approx(
                hamiltonian.energy(batch.best_samples[r]), rel=1e-4, abs=1e-3
            )


class TestIntegerWeightBitExactness:
    """Integer-weight models: float32 == float64, bit for bit."""

    @pytest.mark.parametrize("machine_cls", [PBitMachine])
    @pytest.mark.parametrize("replicas", [1, 8, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_trajectories_bit_exact(self, machine_cls, replicas, seed):
        model = integer_ising(16, seed)
        schedule = linear_beta_schedule(3.0, 40)
        b64 = machine_cls(model, rng=seed).anneal_many(schedule, replicas)
        b32 = machine_cls(model, rng=seed, dtype="float32").anneal_many(
            schedule, replicas
        )
        np.testing.assert_array_equal(b64.last_samples, b32.last_samples)
        np.testing.assert_array_equal(b64.best_samples, b32.best_samples)
        np.testing.assert_array_equal(b64.last_energies, b32.last_energies)
        np.testing.assert_array_equal(b64.best_energies, b32.best_energies)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_energies_exact_in_both_dtypes(self, seed):
        """Reported energies equal the exact Hamiltonian — no drift at all."""
        model = integer_ising(16, seed)
        schedule = linear_beta_schedule(3.0, 40)
        for dtype in DTYPES:
            batch = PBitMachine(model, rng=seed, dtype=dtype).anneal_many(
                schedule, 8
            )
            recomputed = np.array(
                [model.energy(s) for s in batch.last_samples]
            )
            np.testing.assert_array_equal(batch.last_energies, recomputed)
