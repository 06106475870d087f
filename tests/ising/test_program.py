"""Tests for the program/run split of the p-bit kernels.

Three guarantees of the solve-resident annealing design:

- **programming happens once** — the O(N^2) coupling preparation (cast,
  plus the numpy scan's ``col_blocks``/``sub_blocks`` decomposition) is
  built exactly once per machine, however many ``set_fields`` +
  ``anneal_many`` cycles follow;
- **R = 1 runs the threshold-form kernel** — the default p-bit path, on
  either sweep kernel, consumes the same noise stream in the same order as
  the pure-python scan (``kernel="serial"``), so the two produce the *same
  samples* (parity is asserted bit-for-bit on the spins; energies agree to
  accumulation rounding);
- **warm restarts are solve-resident** — a run starting from the previous
  run's final spins reuses the cached ``J @ s`` instead of recomputing the
  start-of-run matmul, and produces the same annealing results as a cold
  start from those spins.
"""

import numpy as np
import pytest

from repro.core.schedule import linear_beta_schedule
from repro.ising._lockstep import BLOCK, AnnealProgram
from repro.ising.pbit import PBitMachine
from repro.ising.quantization import QuantizedPBitMachine
from tests.helpers import random_ising


def _counting_program(monkeypatch):
    """Patch AnnealProgram.__init__ to count constructions."""
    calls = {"count": 0}
    original = AnnealProgram.__init__

    def counting_init(self, coupling, dtype=None):
        calls["count"] += 1
        original(self, coupling, dtype=dtype)

    monkeypatch.setattr(AnnealProgram, "__init__", counting_init)
    return calls


class TestAnnealProgram:
    def test_blocks_match_coupling_slices(self):
        model = random_ising(70, rng=0)
        program = AnnealProgram(model.coupling)
        assert program.num_spins == 70
        assert len(program.col_blocks) == len(program.starts)
        for i0, cols, sub in zip(
            program.starts, program.col_blocks, program.sub_blocks
        ):
            np.testing.assert_array_equal(
                cols, model.coupling[:, i0:i0 + BLOCK]
            )
            np.testing.assert_array_equal(
                sub, model.coupling[i0:i0 + BLOCK, i0:i0 + BLOCK]
            )

    def test_dtype_cast_once(self):
        model = random_ising(20, rng=1)
        program = AnnealProgram(model.coupling, dtype="float32")
        assert program.coupling.dtype == np.float32
        assert all(b.dtype == np.float32 for b in program.col_blocks)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            AnnealProgram(np.zeros((3, 4)))

    def test_initial_inputs_cold_then_warm(self):
        model = random_ising(24, rng=2)
        program = AnnealProgram(model.coupling)
        spins = np.where(
            np.random.default_rng(0).uniform(size=(24, 3)) < 0.5, -1.0, 1.0
        )
        fields = model.fields
        cold = program.initial_inputs(spins, fields)
        assert (program.cold_starts, program.warm_hits) == (1, 0)
        np.testing.assert_allclose(
            cold, model.coupling @ spins + fields[:, None]
        )
        # Retain and come back with the same spins: served from cache.
        program.retain(spins, cold, fields)
        new_fields = fields + 1.5
        warm = program.initial_inputs(spins.copy(), new_fields)
        assert (program.cold_starts, program.warm_hits) == (1, 1)
        np.testing.assert_allclose(
            warm, model.coupling @ spins + new_fields[:, None]
        )
        # Different spins (or replica count) miss the cache.
        program.initial_inputs(-spins, fields)
        program.initial_inputs(spins[:, :2], fields)
        assert program.cold_starts == 3


class TestProgramBuiltOncePerSolve:
    """The block decomposition must be built per machine, not per run."""

    @pytest.mark.parametrize("machine_cls", [PBitMachine])
    def test_one_program_across_reprogram_cycles(self, machine_cls, monkeypatch):
        calls = _counting_program(monkeypatch)
        model = random_ising(40, rng=3)
        machine = machine_cls(model, rng=0)
        assert calls["count"] == 0  # lazy: no block build before first run
        schedule = linear_beta_schedule(3.0, 10)
        rng = np.random.default_rng(1)
        for _ in range(6):  # six SAIM-style reprogram + anneal iterations
            machine.set_fields(rng.normal(size=40), offset=0.0)
            machine.anneal_many(schedule, 4)
        assert calls["count"] == 1
        assert machine.program.coupling is machine._program.coupling

    def test_serial_kernel_machine_never_builds_a_program(self, monkeypatch):
        calls = _counting_program(monkeypatch)
        machine = PBitMachine(random_ising(30, rng=8), rng=0, kernel="serial")
        schedule = linear_beta_schedule(3.0, 10)
        for _ in range(3):
            machine.anneal(schedule)
        assert calls["count"] == 0  # the python scan needs no block program

    def test_engine_solve_builds_one_program(self, monkeypatch):
        from repro.core.engine import SaimEngine
        from repro.core.saim import SaimConfig
        from repro.problems.generators import generate_qkp

        calls = _counting_program(monkeypatch)
        config = SaimConfig(num_iterations=8, mcs_per_run=30, eta=80.0,
                            eta_decay="sqrt", normalize_step=True)
        instance = generate_qkp(15, 0.5, rng=2)
        SaimEngine(config, num_replicas=2).solve(instance.to_problem(), rng=0)
        assert calls["count"] == 1

    def test_quantized_machine_programs_once(self, monkeypatch):
        calls = _counting_program(monkeypatch)
        machine = QuantizedPBitMachine(random_ising(20, rng=4), bits=8, rng=0)
        schedule = linear_beta_schedule(3.0, 8)
        for _ in range(3):
            machine.set_fields(np.zeros(20))
            machine.anneal_many(schedule, 2)
        assert calls["count"] == 1


class TestSerialKernelParity:
    """R=1 via lock-step == the retired pure-python scan (same samples)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pbit_trajectory_parity(self, seed, kernel):
        model = random_ising(50, rng=seed)
        schedule = linear_beta_schedule(4.0, 100)
        fast = PBitMachine(model, rng=seed).anneal(
            schedule, record_energy=True
        )
        reference = PBitMachine(model, rng=seed, kernel="serial").anneal(
            schedule, record_energy=True
        )
        np.testing.assert_array_equal(fast.last_sample, reference.last_sample)
        np.testing.assert_array_equal(fast.best_sample, reference.best_sample)
        np.testing.assert_allclose(
            fast.energy_trace, reference.energy_trace, rtol=1e-12, atol=1e-9
        )

    def test_pbit_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            PBitMachine(random_ising(4, rng=0), kernel="simd")


class TestSolveParityThroughFrontDoor:
    """Seeded repro.solve parity: default lock-step vs kernel="serial".

    Pinned on the paper's Fig. 2 toy Lagrangian and a QKP instance — the
    retired serial kernel must remain reachable through
    ``backend_options={"kernel": "serial"}`` and agree with the default
    path sample-for-sample.
    """

    @staticmethod
    def toy_problem():
        """Fig. 2's toy: min -(x-1)^2 over 3-bit x s.t. x = 2 (OPT -1)."""
        from repro.core.problem import ConstrainedProblem, LinearConstraints

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

    def _solve_pair(self, problem, **kwargs):
        import repro

        fast = repro.solve(problem, **kwargs)
        slow = repro.solve(
            problem, backend_options={"kernel": "serial"}, **kwargs
        )
        return fast, slow

    def test_fig2_toy_parity(self):
        fast, slow = self._solve_pair(
            self.toy_problem(), num_iterations=30, mcs_per_run=80, eta=1.0,
            rng=5,
        )
        assert fast.best_cost == slow.best_cost == pytest.approx(-1.0)
        np.testing.assert_array_equal(fast.best_x, slow.best_x)
        np.testing.assert_array_equal(
            fast.detail.trace.sample_costs, slow.detail.trace.sample_costs
        )
        np.testing.assert_array_equal(
            fast.detail.final_lambdas, slow.detail.final_lambdas
        )

    def test_qkp_parity(self):
        import repro

        instance = repro.generate_qkp(20, 0.5, rng=3)
        fast, slow = self._solve_pair(
            instance, num_iterations=25, mcs_per_run=100, eta=80.0,
            eta_decay="sqrt", normalize_step=True, rng=7,
        )
        assert fast.feasible and slow.feasible
        assert fast.best_cost == slow.best_cost
        np.testing.assert_array_equal(fast.best_x, slow.best_x)
        np.testing.assert_array_equal(
            fast.detail.trace.sample_costs, slow.detail.trace.sample_costs
        )


class TestWarmResident:
    def test_rerun_from_last_samples_hits_cache(self):
        model = random_ising(40, rng=6)
        schedule = linear_beta_schedule(4.0, 30)
        machine = PBitMachine(model, rng=1)
        first = machine.anneal_many(schedule, 4)
        assert machine.program.cold_starts == 1
        machine.anneal_many(schedule, 4, initial=first.last_samples)
        assert machine.program.warm_hits == 1

    def test_warm_start_equals_cold_start_from_same_spins(self):
        """The cached J@s path must not change the annealing outcome.

        Pinned on an *integer-weight* model: there both the incrementally
        accumulated cache and a fresh matmul are exact in float64, so the
        two paths are bit-equal by construction (on float weights they
        agree only to accumulation rounding, which could flip a
        measure-zero threshold tie on some BLAS).
        """
        rng = np.random.default_rng(7)
        upper = np.triu(
            rng.integers(-3, 4, size=(40, 40)).astype(float), k=1
        )
        from repro.ising.model import IsingModel

        model = IsingModel(
            upper + upper.T, rng.integers(-3, 4, size=40).astype(float)
        )
        schedule = linear_beta_schedule(4.0, 30)
        warm_machine = PBitMachine(model, rng=2)
        first = warm_machine.anneal_many(schedule, 3)
        warm = warm_machine.anneal_many(schedule, 3, initial=first.last_samples)
        assert warm_machine.program.warm_hits == 1

        # A cold machine fast-forwarded over the first run's noise draws
        # anneals the same spins without a resident cache.
        cold_machine = PBitMachine(model, rng=2)
        cold_machine.anneal_many(schedule, 3)
        cold_machine.program._resident_spins = None  # drop the cache
        cold = cold_machine.anneal_many(schedule, 3, initial=first.last_samples)
        assert cold_machine.program.cold_starts == 2
        np.testing.assert_array_equal(warm.last_samples, cold.last_samples)
        np.testing.assert_allclose(
            warm.last_energies, cold.last_energies, rtol=1e-12, atol=1e-9
        )


class TestEngineWarmRestart:
    CONFIG = None

    @staticmethod
    def _config(**overrides):
        from repro.core.saim import SaimConfig

        params = dict(num_iterations=10, mcs_per_run=50, eta=80.0,
                      eta_decay="sqrt", normalize_step=True)
        params.update(overrides)
        return SaimConfig(**params)

    def test_rejects_unknown_restart(self):
        from repro.core.engine import SaimEngine

        with pytest.raises(ValueError):
            SaimEngine(self._config(), restart="hot")

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_warm_restart_reuses_resident_state(self, replicas):
        from repro.core.engine import SaimEngine
        from repro.problems.generators import generate_qkp

        made = []

        def factory(model, rng=None, dtype=None):
            machine = PBitMachine(model, rng=rng, dtype=dtype)
            made.append(machine)
            return machine

        instance = generate_qkp(15, 0.5, rng=4)
        result = SaimEngine(
            self._config(), num_replicas=replicas, restart="warm",
            machine_factory=factory,
        ).solve(instance.to_problem(), rng=0)
        assert result.num_iterations == 10
        (machine,) = made
        # Iteration 1 is the only cold start; 2..K resume resident spins.
        assert machine.program.cold_starts == 1
        assert machine.program.warm_hits == 9

    def test_warm_restart_finds_feasible_solutions(self):
        import repro

        instance = repro.generate_qkp(15, 0.5, rng=4)
        warm = repro.solve(
            instance, restart="warm", num_iterations=20, mcs_per_run=80,
            eta=80.0, eta_decay="sqrt", normalize_step=True, rng=1,
        )
        random = repro.solve(
            instance, restart="random", num_iterations=20, mcs_per_run=80,
            eta=80.0, eta_decay="sqrt", normalize_step=True, rng=1,
        )
        assert warm.feasible and random.feasible
        assert np.isfinite(warm.best_cost)

    def test_random_restart_is_the_unchanged_default(self):
        """restart="random" must reproduce the historical engine stream."""
        import repro

        instance = repro.generate_qkp(14, 0.5, rng=3)
        explicit = repro.solve(
            instance, restart="random", num_iterations=10, mcs_per_run=60,
            eta=80.0, eta_decay="sqrt", normalize_step=True, rng=7,
        )
        default = repro.solve(
            instance, num_iterations=10, mcs_per_run=60,
            eta=80.0, eta_decay="sqrt", normalize_step=True, rng=7,
        )
        assert explicit.best_cost == default.best_cost
        np.testing.assert_array_equal(
            explicit.detail.trace.sample_costs,
            default.detail.trace.sample_costs,
        )

    def test_initial_less_legacy_machine_rejected_with_clear_error(self):
        """A serial anneal(schedule)-only machine can't warm-restart: the
        engine must refuse cleanly, not TypeError mid-solve."""
        from repro.core.engine import SaimEngine
        from repro.problems.generators import generate_qkp

        class MinimalMachine:
            def __init__(self, model, rng=None):
                self._inner = PBitMachine(model, rng=rng)

            @property
            def num_spins(self):
                return self._inner.num_spins

            def set_fields(self, fields, offset=None):
                self._inner.set_fields(fields, offset)

            def anneal(self, beta_schedule):  # no initial= parameter
                return self._inner.anneal(beta_schedule)

        instance = generate_qkp(12, 0.5, rng=1)
        engine = SaimEngine(
            self._config(num_iterations=3), restart="warm",
            machine_factory=MinimalMachine,
        )
        with pytest.raises(ValueError, match="initial"):
            engine.solve(instance.to_problem(), rng=0)

    def test_backend_free_methods_reject_restart(self):
        import repro

        instance = repro.generate_qkp(12, 0.5, rng=0)
        with pytest.raises(ValueError, match="backend-free"):
            repro.solve(instance, method="greedy", restart="warm")

    def test_penalty_method_rejects_warm_restart(self):
        import repro

        instance = repro.generate_qkp(12, 0.5, rng=0)
        with pytest.raises(ValueError, match="restart"):
            repro.solve(
                instance, method="penalty", restart="warm",
                num_iterations=5, mcs_per_run=20,
            )
