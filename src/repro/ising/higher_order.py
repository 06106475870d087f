"""Higher-order (polynomial) Ising machines.

The paper notes that "one could design a high-order IM supporting higher
polynomial degrees for f and g" [19].  This module implements that
extension: a polynomial unconstrained binary optimization (PUBO) model over
spins with interactions of arbitrary order, and a p-bit Gibbs sampler for
it.  For a spin ``s_i`` appearing in a monomial ``c * s_i * s_j * s_k`` the
local field contribution is ``c * s_j * s_k``, so the p-bit update rule
(eq. 10) carries over with a generalized input computation.

Energy convention mirrors the quadratic case::

    H(s) = - sum_t  c_t * prod_{i in t} s_i  + offset

so a :class:`PolyIsingModel` built from an :class:`IsingModel` via
:meth:`PolyIsingModel.from_quadratic` has identical energies.

:class:`HigherOrderPBitMachine` speaks the full
:class:`repro.ising.backend.AnnealingBackend` protocol (``set_fields`` /
``anneal_many`` / ``dtype`` / ``model``), so the SAIM engine and the
``repro.solve`` front door drive it like any quadratic backend.  The
batched ``R > 1`` path maintains one per-term spin-product table per
replica (see DESIGN.md, "higher_order backend") and is bit-identical to
``R`` sequential runs on the spawned child streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ising.backend import (
    AnnealResult,
    BatchAnnealResult,
    check_start,
    resolve_dtype,
)
from repro.ising.pbit import random_spins
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass(frozen=True)
class PolyIsingModel:
    """Polynomial Ising Hamiltonian over ±1 spins.

    Parameters
    ----------
    num_spins:
        Number of spins.
    terms:
        Mapping from a sorted tuple of distinct spin indices to the (real)
        coefficient of ``prod s_i``; the empty tuple is not allowed — use
        ``offset``.  Duplicate keys (any index order) are summed, and terms
        whose coefficients cancel to exactly zero are pruned.
    offset:
        Constant energy shift.
    """

    num_spins: int
    terms: dict
    offset: float = 0.0

    def __post_init__(self):
        if self.num_spins < 1:
            raise ValueError(f"num_spins must be >= 1, got {self.num_spins}")
        # Sum duplicates first, THEN prune zeros: `{(0,1): 1.0, (1,0): -1.0}`
        # must cancel to no term at all, not survive as a 0.0 entry that
        # inflates max_order and the machine's per-spin term lists.
        merged = {}
        for indices, coefficient in self.terms.items():
            key = tuple(sorted(int(i) for i in indices))
            if len(key) == 0:
                raise ValueError("constant terms belong in offset")
            if len(set(key)) != len(key):
                raise ValueError(f"repeated spin index in term {indices}")
            if not all(0 <= i < self.num_spins for i in key):
                raise ValueError(f"term {indices} out of range for {self.num_spins} spins")
            merged[key] = merged.get(key, 0.0) + float(coefficient)
        cleaned = {key: c for key, c in merged.items() if c != 0.0}
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "offset", float(self.offset))

    @classmethod
    def from_quadratic(cls, model) -> "PolyIsingModel":
        """Lift a quadratic :class:`IsingModel` into polynomial form.

        Handles both dense couplings and scipy-sparse (CSR/COO) couplings
        as accepted by the chromatic machine — sparse matrices are walked
        by their stored entries, never densified.
        """
        n = model.num_spins
        fields = np.asarray(model.fields, dtype=float)
        terms = {}
        for i in np.nonzero(fields)[0]:
            terms[(int(i),)] = float(fields[i])
        coupling = model.coupling
        if hasattr(coupling, "tocoo"):
            coo = coupling.tocoo()
            for i, j, value in zip(coo.row, coo.col, coo.data):
                if i < j and value != 0.0:
                    terms[(int(i), int(j))] = float(value)
        else:
            coupling = np.asarray(coupling)
            rows, cols = np.nonzero(np.triu(coupling, k=1))
            for i, j in zip(rows, cols):
                terms[(int(i), int(j))] = float(coupling[i, j])
        return cls(n, terms, float(model.offset))

    @property
    def max_order(self) -> int:
        """Largest interaction order present (0 for a constant model)."""
        return max((len(t) for t in self.terms), default=0)

    @property
    def fields(self) -> np.ndarray:
        """The degree-1 coefficient vector (the quadratic case's ``h``)."""
        fields = np.zeros(self.num_spins)
        for indices, coefficient in self.terms.items():
            if len(indices) == 1:
                fields[indices[0]] = coefficient
        return fields

    def energy(self, spins) -> float:
        """``H(s) = -sum_t c_t prod_i s_i + offset``."""
        s = np.asarray(spins, dtype=float)
        if s.shape != (self.num_spins,):
            raise ValueError(f"spins must have shape ({self.num_spins},)")
        total = 0.0
        for indices, coefficient in self.terms.items():
            total += coefficient * float(np.prod(s[list(indices)]))
        return -total + self.offset

    def local_field(self, spins, i: int) -> float:
        """Generalized p-bit input ``I_i = dH/d(-s_i)``.

        ``I_i = sum_{t containing i} c_t * prod_{j in t, j != i} s_j`` so
        that flipping ``s_i`` changes the energy by ``2 s_i I_i`` exactly as
        in the quadratic case.
        """
        s = np.asarray(spins, dtype=float)
        field = 0.0
        for indices, coefficient in self.terms.items():
            if i in indices:
                others = [j for j in indices if j != i]
                field += coefficient * float(np.prod(s[others])) if others else coefficient
        return field


class HigherOrderPBitMachine:
    """Batched p-bit Gibbs sampler for a :class:`PolyIsingModel`.

    Speaks the :class:`~repro.ising.backend.AnnealingBackend` protocol.
    Quadratic :class:`~repro.ising.model.IsingModel` inputs are lifted via
    :meth:`PolyIsingModel.from_quadratic`, so the machine is a drop-in
    backend for quadratic problems too (same ``>=`` threshold convention
    as :class:`~repro.ising.pbit.PBitMachine`).

    The kernel maintains one per-term spin-product table ``P`` of shape
    ``(R, T)`` over the order >= 2 terms: since ``s_i^2 = 1``, the local
    input is ``I_i = h_i + s_i * sum_{t ∋ i} c_t P_t`` and a flip of spin
    ``i`` negates exactly the columns of the terms containing ``i``.  All
    contractions are row-independent elementwise reductions (never BLAS
    matmuls), so each replica's arithmetic is identical at any batch
    width — the ``R > 1`` path is bit-identical to ``R`` serial runs on
    the spawned child streams.

    Coefficients, fields and energies are always float64; ``dtype``
    selects the precision of the threshold decision arithmetic only.
    """

    #: The engine checks this before handing a machine a PolyIsingModel.
    accepts_poly = True

    def __init__(self, model, rng=None, dtype=None):
        if not isinstance(model, PolyIsingModel):
            model = PolyIsingModel.from_quadratic(model)
        self._rng = ensure_rng(rng)
        self._dtype = resolve_dtype(dtype)
        n = model.num_spins
        self._num_spins = n
        self._offset = float(model.offset)

        fields = np.zeros(n)
        high = {}
        for indices, coefficient in model.terms.items():
            if len(indices) == 1:
                fields[indices[0]] = coefficient
            else:
                high[indices] = coefficient
        self._fields = fields
        # Deterministic term order: the kernel's float summation order is
        # part of the bit-identity contract.
        self._high_terms = tuple(sorted(high.items()))
        coeffs = np.array([c for _, c in self._high_terms], dtype=float)
        self._coeffs = coeffs
        if self._high_terms:
            self._flat_idx = np.concatenate(
                [np.asarray(t, dtype=np.int64) for t, _ in self._high_terms]
            )
            sizes = [len(t) for t, _ in self._high_terms]
            self._starts = np.concatenate(
                [[0], np.cumsum(sizes[:-1])]
            ).astype(np.int64)
        else:
            self._flat_idx = np.zeros(0, dtype=np.int64)
            self._starts = np.zeros(0, dtype=np.int64)
        term_ids = [[] for _ in range(n)]
        for t_index, (indices, _) in enumerate(self._high_terms):
            for i in indices:
                term_ids[i].append(t_index)
        self._term_ids = [np.asarray(ids, dtype=np.int64) for ids in term_ids]
        self._term_coeffs = [coeffs[ids] for ids in self._term_ids]

    @property
    def num_spins(self) -> int:
        """Number of p-bits."""
        return self._num_spins

    @property
    def dtype(self) -> np.dtype:
        """Decision-arithmetic precision (coefficients stay float64)."""
        return self._dtype

    @property
    def model(self) -> PolyIsingModel:
        """The currently programmed Hamiltonian (fields included)."""
        terms = dict(self._high_terms)
        for i in np.nonzero(self._fields)[0]:
            terms[(int(i),)] = float(self._fields[i])
        return PolyIsingModel(self._num_spins, terms, self._offset)

    def set_fields(self, fields, offset=None) -> None:
        """Reprogram the degree-1 coefficients (and optionally the offset).

        Copies the values — the SAIM engine reuses one buffer across
        iterations.
        """
        fields = np.asarray(fields, dtype=float)
        if fields.shape != (self._num_spins,):
            raise ValueError(
                f"fields must have shape ({self._num_spins},), got {fields.shape}"
            )
        self._fields[...] = fields
        if offset is not None:
            self._offset = float(offset)

    def _term_products(self, spins) -> np.ndarray:
        """Per-term spin products ``P[r, t] = prod_{i in t} s_i`` (R, T)."""
        if not self._coeffs.size:
            return np.zeros((spins.shape[0], 0))
        return np.multiply.reduceat(spins[:, self._flat_idx], self._starts, axis=1)

    def anneal_many(self, beta_schedule, num_replicas: int, initial=None,
                    record_energy: bool = False) -> BatchAnnealResult:
        """Run ``num_replicas`` independent annealed replicas in lock step.

        Replica ``r`` consumes exactly the draws a serial run on
        ``spawn_rngs(rng, R)[r]`` would (``R = 1`` uses the machine's own
        stream, preserving the legacy serial sequence).
        """
        betas = np.asarray(beta_schedule, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("beta_schedule must be a non-empty 1-D sequence")
        n = self._num_spins
        replicas = num_replicas
        spins = check_start(replicas, n, initial)
        rngs = [self._rng] if replicas == 1 else spawn_rngs(self._rng, replicas)
        if spins is None:
            spins = np.stack([random_spins(rng, n) for rng in rngs])

        products = self._term_products(spins)
        fields = self._fields
        coeffs = self._coeffs
        # Row-independent reductions keep each replica's arithmetic
        # identical at any R (no BLAS matvec).
        energies = (
            -(products * coeffs).sum(axis=1)
            - (spins * fields).sum(axis=1)
            + self._offset
        )
        best_energies = energies.copy()
        best_samples = spins.copy()
        traces = np.empty((replicas, betas.size)) if record_energy else None

        decision_dtype = self._dtype
        cast = decision_dtype != np.dtype(np.float64)
        for sweep, beta in enumerate(betas):
            noise = np.stack([rng.uniform(-1.0, 1.0, size=n) for rng in rngs])
            beta_d = decision_dtype.type(beta)
            for i in range(n):
                ids = self._term_ids[i]
                if ids.size:
                    # np.take keeps the gather C-ordered; `products[:, ids]`
                    # comes back F-ordered for R > 1, which flips the sum
                    # below from pairwise-per-row to sequential-per-column
                    # and breaks bit-identity with the R = 1 path by 1 ulp.
                    gathered = np.take(products, ids, axis=1)
                    contrib = (gathered * self._term_coeffs[i]).sum(axis=1)
                    inputs = fields[i] + spins[:, i] * contrib
                else:
                    inputs = np.full(replicas, fields[i])
                if cast:
                    activation = (
                        np.tanh(beta_d * inputs.astype(decision_dtype))
                        + noise[:, i].astype(decision_dtype)
                    )
                else:
                    activation = np.tanh(beta_d * inputs) + noise[:, i]
                new_spins = np.where(activation >= 0.0, 1.0, -1.0)
                flipped = new_spins != spins[:, i]
                if np.any(flipped):
                    # Exact incremental accounting in float64: the flip
                    # delta is 2 s_i I_i with I_i from the exact products.
                    energies[flipped] += 2.0 * spins[flipped, i] * inputs[flipped]
                    spins[flipped, i] = new_spins[flipped]
                    if ids.size:
                        products[np.ix_(np.nonzero(flipped)[0], ids)] *= -1.0
            improved = energies < best_energies
            if np.any(improved):
                best_energies[improved] = energies[improved]
                best_samples[improved] = spins[improved]
            if record_energy:
                traces[:, sweep] = energies
        return BatchAnnealResult(
            last_samples=spins,
            last_energies=energies.copy(),
            best_samples=best_samples,
            best_energies=best_energies,
            num_sweeps=betas.size,
            energy_traces=traces,
        )

    def anneal(self, beta_schedule, initial=None,
               record_energy: bool = False) -> AnnealResult:
        """Single annealing run — the ``R = 1`` view of :meth:`anneal_many`."""
        if initial is not None:
            initial = np.asarray(initial, dtype=float)[None]
        return self.anneal_many(
            beta_schedule, 1, initial=initial, record_energy=record_energy
        ).per_run(0)


def enumerate_poly_energies(model: PolyIsingModel) -> np.ndarray:
    """Exact energies of all ``2**n`` spin states (small models only).

    State ``code`` maps bit ``i`` (LSB first) to spin ``i``, bit value 1
    meaning spin +1 — the same convention as
    :func:`repro.ising.exhaustive.enumerate_energies`.
    """
    n = model.num_spins
    if n > 20:
        raise ValueError(f"enumeration limited to 20 spins, got {n}")
    codes = np.arange(2**n, dtype=np.int64)
    spins = (2.0 * ((codes[:, None] >> np.arange(n)) & 1) - 1.0)
    energies = np.full(2**n, model.offset)
    for indices, coefficient in model.terms.items():
        energies -= coefficient * spins[:, list(indices)].prod(axis=1)
    return energies
