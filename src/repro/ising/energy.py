"""Energy evaluation kernels shared by all samplers.

Everything here is pure numpy on dense arrays.  The incremental quantities —
input fields ``I = J s + h`` and single-flip deltas — are the primitives the
p-bit machine and parallel tempering are built from.  The batch kernels are
the production surface (exported from ``repro.ising``); the scalar
``input_fields`` / ``flip_delta`` / ``all_flip_deltas`` forms stay
module-local as the reference definitions the property suite checks the
machines against.
"""

from __future__ import annotations

import numpy as np


def qubo_energy(model, x) -> float:
    """``x^T Q x + c^T x + offset`` for one binary vector."""
    x = np.asarray(x, dtype=float)
    return float(x @ model.quadratic @ x + model.linear @ x + model.offset)


def qubo_energies(model, xs) -> np.ndarray:
    """Vectorized QUBO energies for a ``(batch, n)`` matrix of binaries."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"xs must be 2-D (batch, n), got shape {xs.shape}")
    quad_part = np.einsum("bi,ij,bj->b", xs, model.quadratic, xs)
    return quad_part + xs @ model.linear + model.offset


def ising_energy(model, spins) -> float:
    """``-1/2 s^T J s - h^T s + offset`` for one spin vector."""
    s = np.asarray(spins, dtype=float)
    return float(-0.5 * s @ model.coupling @ s - model.fields @ s + model.offset)


def ising_energies(model, spin_batch) -> np.ndarray:
    """Vectorized Ising energies for a ``(batch, n)`` matrix of spins."""
    s = np.asarray(spin_batch, dtype=float)
    if s.ndim != 2:
        raise ValueError(f"spin_batch must be 2-D, got shape {s.shape}")
    quad_part = -0.5 * np.einsum("bi,ij,bj->b", s, model.coupling, s)
    return quad_part - s @ model.fields + model.offset


def input_fields(model, spins) -> np.ndarray:
    """Per-spin input ``I_i = sum_j J_ij s_j + h_i`` (paper eq. 9)."""
    s = np.asarray(spins, dtype=float)
    return model.coupling @ s + model.fields


def flip_delta(spins, fields_vector, index: int) -> float:
    """Energy change of flipping spin ``index`` given current input fields.

    For ``H = -1/2 s^T J s - h^T s`` flipping ``s_i -> -s_i`` changes the
    energy by ``2 s_i I_i`` where ``I_i = (J s)_i + h_i``.
    """
    return 2.0 * float(spins[index]) * float(fields_vector[index])


def all_flip_deltas(spins, fields_vector) -> np.ndarray:
    """Vector of single-flip energy changes for every spin at once."""
    return 2.0 * np.asarray(spins, dtype=float) * np.asarray(fields_vector, dtype=float)
