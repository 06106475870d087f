"""Property-based equivalence suite over the kernel zoo.

The repo carries three update rules (thresholded Gibbs, event-driven
serial scans, chromatic block Gibbs) across two storage dtypes and two
sparse layouts.  This suite pins the invariants that
make them interchangeable, over randomized Ising models:

(a) **energy accounting** — every registered backend and every kernel or
    layout variant of one, at every dtype and replica count (including the
    big-R batched path), reports energies that
    match a float64 recomputation from its own Hamiltonian to dtype
    tolerance;
(b) **zero-temperature descent** — at beta -> inf every kernel is a
    coordinate-descent move, so per-sweep energy traces are monotone
    non-increasing;
(c) **layout equivalence** — the chromatic machine's CSR and dense row-block
    layouts run the identical update on the identical noise stream, so on
    integer-weight models (every partial sum exact in either dtype, any
    summation order) they are bit-identical.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.schedule import constant_beta_schedule, linear_beta_schedule
from repro.ising.model import IsingModel
from repro.ising.pbit import PBitMachine
from repro.ising.sparse import ChromaticPBitMachine, random_sparse_ising
from tests.helpers import backend_configs, random_ising

CONFIGS = backend_configs()
DTYPES = ("float64", "float32")
# Reported-vs-recomputed energy tolerances per storage dtype.  float32
# tolerances cover the incremental input-field drift of the lock-step scan;
# energies themselves are float64-accumulated.
ENERGY_TOL = {
    "float64": dict(rtol=1e-9, atol=1e-7),
    "float32": dict(rtol=1e-4, atol=1e-3),
}

seeds = st.integers(min_value=0, max_value=10**6)


def _machine(name, options, model, rng, dtype):
    factory = repro.make_backend_factory(name, **options)
    return factory(model, rng=rng, dtype=dtype)


def _supports_record_energy(machine) -> bool:
    many = getattr(machine, "anneal_many", None)
    if not callable(many):
        return False
    return "record_energy" in inspect.signature(many).parameters


def integer_sparse_ising(num_spins, degree, seed, scale=3):
    """Random regular sparse Ising model with small *integer* weights.

    Integer weights make every partial sum exact in float32 and float64
    alike, so results are independent of summation order — the precondition
    for the bit-identity assertions below.
    """
    from scipy import sparse as sp

    base = random_sparse_ising(num_spins, degree=degree, rng=seed)
    rng = np.random.default_rng(seed + 1)
    # Re-draw symmetric nonzero integer weights onto the same sparsity
    # pattern, building a fresh matrix so no assumption is made about the
    # ordering of the CSR data array.
    rows, cols = base.coupling.nonzero()
    upper = rows < cols
    draw = rng.integers(1, scale + 1, size=int(upper.sum())) * rng.choice(
        [-1.0, 1.0], size=int(upper.sum())
    )
    lookup = {
        (int(i), int(j)): v
        for (i, j), v in zip(zip(rows[upper], cols[upper]), draw)
    }
    values = np.array(
        [lookup[(min(i, j), max(i, j))] for i, j in zip(rows, cols)]
    )
    coupling = sp.coo_matrix(
        (values, (rows, cols)), shape=base.coupling.shape
    ).tocsr()
    fields = rng.integers(-scale, scale + 1, size=num_spins).astype(float)
    return type(base)(coupling, fields)


class TestEnergyAccounting:
    """(a) reported energies == recomputed energies, to dtype tolerance."""

    @pytest.mark.parametrize("name, options", CONFIGS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("replicas", [1, 8, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reported_matches_recomputed(self, name, options, dtype,
                                         replicas, seed):
        model = random_ising(10, rng=seed)
        machine = _machine(name, options, model, rng=seed + 100, dtype=dtype)
        schedule = linear_beta_schedule(2.5, 8)
        batch = machine.anneal_many(schedule, replicas)
        hamiltonian = machine.model  # reflects dtype-rounded storage
        recomputed_last = np.array(
            [hamiltonian.energy(s) for s in batch.last_samples]
        )
        recomputed_best = np.array(
            [hamiltonian.energy(s) for s in batch.best_samples]
        )
        np.testing.assert_allclose(
            batch.last_energies, recomputed_last, **ENERGY_TOL[dtype]
        )
        np.testing.assert_allclose(
            batch.best_energies, recomputed_best, **ENERGY_TOL[dtype]
        )

    @given(seed=seeds, n=st.integers(4, 14), replicas=st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_lockstep_accounting_randomized(self, seed, n, replicas):
        """Hypothesis sweep of the dense lock-step kernels, both dtypes."""
        model = random_ising(n, rng=seed)
        schedule = linear_beta_schedule(3.0, 10)
        for dtype in DTYPES:
            machine = PBitMachine(model, rng=seed, dtype=dtype)
            batch = machine.anneal_many(schedule, replicas)
            recomputed = np.array(
                [machine.model.energy(s) for s in batch.last_samples]
            )
            np.testing.assert_allclose(
                batch.last_energies, recomputed, **ENERGY_TOL[dtype]
            )


class TestZeroTemperatureDescent:
    """(b) at beta -> inf every kernel only ever lowers the energy."""

    # Monotonicity slack: exactly 0 in real arithmetic; float32 scans may
    # report sweep-to-sweep upticks at the scale of the input-field drift.
    SLACK = {"float64": 1e-7, "float32": 1e-2}

    @pytest.mark.parametrize("name, options", CONFIGS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_traces_monotone_non_increasing(self, name, options, dtype,
                                            seed):
        model = random_ising(12, rng=seed)
        machine = _machine(name, options, model, rng=seed, dtype=dtype)
        if not _supports_record_energy(machine):
            pytest.skip(f"backend {name!r} exposes no energy traces")
        schedule = constant_beta_schedule(1e8, 20)
        batch = machine.anneal_many(schedule, 8, record_energy=True)
        diffs = np.diff(batch.energy_traces, axis=1)
        assert diffs.max(initial=-np.inf) <= self.SLACK[dtype], (
            f"energy rose by {diffs.max()} at beta=1e8 on backend {name!r}"
        )

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_chromatic_descent_on_sparse_randomized(self, seed):
        model = random_sparse_ising(16, degree=3, rng=seed)
        machine = ChromaticPBitMachine(model, rng=seed)
        schedule = constant_beta_schedule(1e8, 15)
        batch = machine.anneal_many(schedule, 4, record_energy=True)
        assert np.diff(batch.energy_traces, axis=1).max(initial=-np.inf) <= 1e-7


class TestChromaticLayoutEquivalence:
    """(c) CSR and dense row-block layouts are the same kernel."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @given(seed=st.integers(0, 10**4))
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_on_integer_weights(self, dtype, seed):
        model = integer_sparse_ising(14, degree=3, seed=seed)
        schedule = linear_beta_schedule(2.0, 12)
        results = {}
        for storage in ("csr", "dense"):
            machine = ChromaticPBitMachine(
                model, rng=seed, dtype=dtype, storage=storage
            )
            results[storage] = machine.anneal_many(schedule, 6)
        np.testing.assert_array_equal(
            results["csr"].last_samples, results["dense"].last_samples
        )
        np.testing.assert_array_equal(
            results["csr"].last_energies, results["dense"].last_energies
        )
        np.testing.assert_array_equal(
            results["csr"].best_energies, results["dense"].best_energies
        )

    def test_float_weights_agree_statistically(self):
        """With float weights the layouts stay distribution-equivalent
        (bit-identity is an integer-weight guarantee: float matmul
        summation order differs between CSR and BLAS)."""
        model = random_sparse_ising(24, degree=4, rng=9)
        schedule = linear_beta_schedule(3.0, 60)
        means = {}
        for storage in ("csr", "dense"):
            machine = ChromaticPBitMachine(model, rng=10, storage=storage)
            means[storage] = float(
                machine.anneal_many(schedule, 64).last_energies.mean()
            )
        spread = abs(means["csr"]) * 0.25 + 1.0
        assert abs(means["csr"] - means["dense"]) < spread

    def test_dense_input_equals_sparse_input(self):
        """Building from a dense IsingModel == building from its CSR form."""
        sparse_model = integer_sparse_ising(12, degree=3, seed=21)
        dense_model = IsingModel(
            sparse_model.coupling.toarray(), sparse_model.fields.copy()
        )
        schedule = linear_beta_schedule(2.0, 10)
        from_sparse = ChromaticPBitMachine(sparse_model, rng=5).anneal_many(
            schedule, 3
        )
        from_dense = ChromaticPBitMachine(dense_model, rng=5).anneal_many(
            schedule, 3
        )
        np.testing.assert_array_equal(
            from_sparse.last_samples, from_dense.last_samples
        )
        np.testing.assert_array_equal(
            from_sparse.last_energies, from_dense.last_energies
        )
