"""Ising-machine substrate: models, energies, and samplers.

This subpackage is the "hardware" layer of the reproduction.  It provides the
Ising/QUBO model containers, exact energy evaluation, and the two samplers
used in the paper's evaluation:

- :class:`~repro.ising.pbit.PBitMachine` — the probabilistic-bit Ising
  machine of Section III-B (sequential Gibbs sweeps with annealing); SAIM
  and the penalty-method baselines both run on it.
- :func:`~repro.ising.parallel_tempering.parallel_tempering` — a
  replica-exchange sampler standing in for Fujitsu's Digital Annealer
  parallel-tempering mode (PT-DA), the comparator of Tables III-IV.
"""

from repro.ising.model import IsingModel, QuboModel
from repro.ising.backend import (
    AnnealingBackend,
    BatchAnnealResult,
    batch_from_runs,
)
from repro.ising.energy import (
    ising_energy,
    ising_energies,
    qubo_energy,
    qubo_energies,
)
from repro.ising.pbit import PBitMachine, AnnealResult
from repro.ising.parallel_tempering import parallel_tempering
from repro.ising.exhaustive import brute_force_ground_state
from repro.ising.quantization import (
    QuantizationSpec,
    QuantizedPBitMachine,
    quantize_ising,
    quantization_error,
)
from repro.ising.sparse import (
    SparseIsingModel,
    ChromaticPBitMachine,
    greedy_coloring,
    random_sparse_ising,
)
from repro.ising.fleet import FleetMachine
from repro.ising.qubo_io import write_qubo, read_qubo
from repro.ising.higher_order import (
    PolyIsingModel,
    HigherOrderPBitMachine,
    enumerate_poly_energies,
)

__all__ = [
    "AnnealingBackend",
    "BatchAnnealResult",
    "batch_from_runs",
    "QuantizationSpec",
    "QuantizedPBitMachine",
    "quantize_ising",
    "quantization_error",
    "SparseIsingModel",
    "ChromaticPBitMachine",
    "greedy_coloring",
    "random_sparse_ising",
    "FleetMachine",
    "write_qubo",
    "read_qubo",
    "PolyIsingModel",
    "HigherOrderPBitMachine",
    "enumerate_poly_energies",
    "IsingModel",
    "QuboModel",
    "ising_energy",
    "ising_energies",
    "qubo_energy",
    "qubo_energies",
    "PBitMachine",
    "AnnealResult",
    "parallel_tempering",
    "brute_force_ground_state",
]
