"""Sparse Ising models and chromatic (graph-colored) Gibbs sampling.

Massively parallel p-bit machines [10] exploit sparsity: p-bits whose
coupling graph assigns them different colors have no direct interaction, so
all p-bits of one color can update *simultaneously* while still performing
exact Gibbs sampling.  This module provides

- :class:`SparseIsingModel` — CSR-backed couplings for graphs far too large
  for the dense containers;
- :func:`greedy_coloring` — networkx-based coloring of the coupling graph;
- :class:`ChromaticPBitMachine` — the color-synchronous p-bit machine,
  statistically equivalent to sequential Gibbs on the same model.

QKP instances are dense so SAIM's main pipeline uses the dense machine;
this substrate exists for the sparse-hardware experiments the p-bit
literature targets (and is exercised on max-cut in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.ising.backend import check_start, resolve_dtype
from repro.ising.pbit import random_spins
# Coupling-graph density (off-diagonal nonzeros / possible off-diagonal
# entries) at and above which the chromatic machine auto-selects dense
# per-color row blocks.  The measured cutover lives with the platform's
# other tunables; re-exported here because this module is where the
# auto-selection happens.
from repro.planner.tunables import DENSE_STORAGE_DENSITY
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:
    import networkx as nx
    from scipy import sparse as sp


@dataclass
class SparseIsingModel:
    """Ising model with CSR couplings (same Hamiltonian convention as
    :class:`repro.ising.model.IsingModel`)."""

    coupling: sp.csr_matrix
    fields: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        from scipy import sparse as sp

        coupling = sp.csr_matrix(self.coupling)
        if coupling.shape[0] != coupling.shape[1]:
            raise ValueError(f"J must be square, got {coupling.shape}")
        if abs(coupling - coupling.T).max() > 1e-9:
            raise ValueError("J must be symmetric")
        if np.any(coupling.diagonal() != 0):
            raise ValueError("J diagonal must be zero")
        fields = np.asarray(self.fields, dtype=float)
        if fields.size != coupling.shape[0]:
            raise ValueError(
                f"fields must have length {coupling.shape[0]}, got {fields.size}"
            )
        self.coupling = coupling
        self.fields = fields
        self.offset = float(self.offset)

    @classmethod
    def from_dense(cls, model) -> "SparseIsingModel":
        """Build from a dense :class:`IsingModel`."""
        from scipy import sparse as sp

        return cls(sp.csr_matrix(model.coupling), model.fields.copy(), model.offset)

    @property
    def num_spins(self) -> int:
        """Number of spins."""
        return self.fields.size

    def energy(self, spins) -> float:
        """Exact Hamiltonian value."""
        s = np.asarray(spins, dtype=float)
        return float(-0.5 * s @ (self.coupling @ s) - self.fields @ s + self.offset)

    def to_graph(self) -> nx.Graph:
        """The coupling graph (one node per spin, edges where J != 0)."""
        import networkx as nx

        rows, cols = self.coupling.nonzero()
        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_spins))
        graph.add_edges_from(
            (int(i), int(j)) for i, j in zip(rows, cols) if i < j
        )
        return graph


def coupling_density(model: SparseIsingModel) -> float:
    """Fraction of possible off-diagonal couplings that are nonzero."""
    n = model.num_spins
    if n < 2:
        return 0.0
    return model.coupling.nnz / float(n * (n - 1))


def greedy_coloring(model: SparseIsingModel) -> list[np.ndarray]:
    """Color the coupling graph; returns one index array per color class.

    Spins sharing a color have no coupling between them, so they can be
    Gibbs-updated in parallel without changing the stationary distribution.
    """
    import networkx as nx

    graph = model.to_graph()
    coloring = nx.greedy_color(graph, strategy="largest_first")
    num_colors = max(coloring.values(), default=-1) + 1
    classes = [[] for _ in range(max(num_colors, 1))]
    for node in range(model.num_spins):
        classes[coloring.get(node, 0)].append(node)
    return [np.asarray(cls, dtype=np.int64) for cls in classes if cls]


class ChromaticPBitMachine:
    """Color-synchronous p-bit machine over a sparse model.

    Each sweep updates the color classes in order; within a class all p-bits
    fire simultaneously (vectorized), which is exact block Gibbs sampling
    because same-color spins are mutually uncoupled.  ``anneal_many``
    additionally vectorizes *across replicas*: one color-class update is a
    single ``(class, n) @ (n, R)`` matmul serving all ``R`` replicas at once,
    so a sweep costs ``num_colors`` matmuls regardless of replica count.

    Implements the :class:`repro.ising.backend.AnnealingBackend` protocol
    (``set_fields`` + ``anneal_many``), so SAIM can drive it like any other
    programmable IM; dense :class:`repro.ising.model.IsingModel` inputs (what
    the SAIM engine builds) are adapted automatically.  On a dense problem
    the coloring degenerates to one spin per color (sequential Gibbs) — the
    machine's parallelism pays off on the sparse topologies hardware p-bit
    arrays target.

    Parameters
    ----------
    model:
        A :class:`SparseIsingModel`, or a dense ``IsingModel`` (converted).
    rng:
        Seed or generator for the p-bit noise.
    dtype:
        Scan precision of the per-color updates (``"float64"`` default or
        ``"float32"``).  Per-sweep energies are always computed in float64
        from the canonical couplings, so read-outs stay exact.
    storage:
        Layout of the per-color coupling row blocks: ``"csr"`` (sparse
        matmuls; right for genuinely sparse graphs), ``"dense"``
        (contiguous BLAS blocks; faster when the adjacency is dense-ish),
        or ``None`` / ``"auto"`` (the default) — pick by the coupling
        graph's density: dense row blocks at
        :data:`DENSE_STORAGE_DENSITY` and above, CSR below.  Both layouts
        run the identical update rule on the identical noise stream — on
        integer-weight models they are bit-identical.
    """

    #: The ``storage`` values the machine takes (``None`` is ``"auto"``).
    STORAGES = (None, "auto", "csr", "dense")

    def __init__(self, model, rng=None, dtype=None, storage: str | None = None):
        if storage not in self.STORAGES:
            raise ValueError(
                f"storage must be one of {self.STORAGES}, got {storage!r}"
            )
        if not isinstance(model, SparseIsingModel):
            model = SparseIsingModel.from_dense(model)
        if storage in (None, "auto"):
            storage = (
                "dense"
                if coupling_density(model) >= DENSE_STORAGE_DENSITY
                else "csr"
            )
        # Private fields buffer: set_fields reprograms it in place, so it
        # must never alias the caller's array.
        self._model = SparseIsingModel(
            model.coupling, model.fields.copy(), model.offset
        )
        self._dtype = resolve_dtype(dtype)
        self._storage = storage
        self._colors = greedy_coloring(model)
        # The coupling graph is fixed for the machine's lifetime (SAIM only
        # reprograms fields), so the per-color row blocks are built once,
        # already cast to the scan dtype.
        if storage == "csr":
            self._color_rows = [
                model.coupling[color].astype(self._dtype)
                for color in self._colors
            ]
        else:
            self._color_rows = [
                np.ascontiguousarray(
                    model.coupling[color].toarray(), dtype=self._dtype
                )
                for color in self._colors
            ]
        self._rng = ensure_rng(rng)

    @classmethod
    def from_dense(cls, model, rng=None, dtype=None,
                   storage: str | None = None) -> "ChromaticPBitMachine":
        """Build from a dense :class:`repro.ising.model.IsingModel`."""
        return cls(
            SparseIsingModel.from_dense(model), rng=rng, dtype=dtype,
            storage=storage,
        )

    @property
    def num_colors(self) -> int:
        """Number of parallel update groups per sweep."""
        return len(self._colors)

    @property
    def num_spins(self) -> int:
        """Number of p-bits."""
        return self._model.num_spins

    @property
    def dtype(self) -> np.dtype:
        """Scan precision of the per-color updates."""
        return self._dtype

    @property
    def storage(self) -> str:
        """Row-block layout of the per-color couplings (csr or dense)."""
        return self._storage

    @property
    def model(self) -> SparseIsingModel:
        """Current Hamiltonian (couplings shared, fields copied)."""
        return SparseIsingModel(
            self._model.coupling, self._model.fields.copy(), self._model.offset
        )

    def set_fields(self, fields, offset: float | None = None) -> None:
        """Reprogram the linear fields ``h`` (and optionally the offset).

        One cast, one copy, into the model-owned buffer (the caller may
        reuse its ``fields`` array across calls).
        """
        fields = np.asarray(fields)
        if fields.shape != self._model.fields.shape:
            raise ValueError(
                f"fields must have shape {self._model.fields.shape}, "
                f"got {fields.shape}"
            )
        self._model.fields[...] = fields
        if offset is not None:
            self._model.offset = float(offset)

    def anneal(self, beta_schedule, initial=None, record_energy: bool = False):
        """Annealed chromatic Gibbs sampling; returns an ``AnnealResult``.

        The ``R = 1`` view of :meth:`anneal_many` (same noise stream as the
        historical serial loop: one uniform draw per color-class member).
        """
        if initial is not None:
            initial = np.asarray(initial, dtype=float)[None]
        return self.anneal_many(
            beta_schedule, 1, initial=initial, record_energy=record_energy
        ).per_run(0)

    def anneal_many(self, beta_schedule, num_replicas: int, initial=None,
                    record_energy: bool = False):
        """Anneal ``num_replicas`` independent chromatic-Gibbs replicas.

        Vectorized over replicas *and* within each color class: one sweep
        costs ``num_colors`` matmuls (CSR or dense BLAS, per ``storage``)
        regardless of replica count.  The scan runs in the machine's
        ``dtype``; per-sweep energies are recomputed in float64 from the
        canonical couplings.  ``record_energy`` stores the ``(R, sweeps)``
        traces.
        """
        from repro.ising.backend import BatchAnnealResult

        betas = np.asarray(beta_schedule, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("beta_schedule must be a non-empty 1-D sequence")
        model = self._model
        rng = self._rng
        n = model.num_spins
        dtype = self._dtype
        one = dtype.type(1.0)
        states = check_start(num_replicas, n, initial)
        if states is None:
            states = random_spins(rng, (num_replicas, n))

        spins = np.ascontiguousarray(states.T, dtype=dtype)  # (n, R)
        coupling = model.coupling
        # Scan-dtype view of the fields, sliced per color once per call
        # (SAIM reprograms fields between calls, never during one).
        color_fields = [
            model.fields[color].astype(dtype)[:, None] for color in self._colors
        ]

        def batch_energies(s):
            # Float64 accounting from the canonical (float64) couplings:
            # exact read-outs whatever the scan dtype.
            s64 = s.astype(np.float64, copy=False)
            return (
                -0.5 * np.einsum("ir,ir->r", s64, coupling @ s64)
                - model.fields @ s64
                + model.offset
            )

        energies = batch_energies(spins)
        best_energies = energies.copy()
        best_spins = spins.copy()
        traces = (
            np.empty((num_replicas, betas.size)) if record_energy else None
        )

        for sweep, beta in enumerate(betas):
            beta_dt = dtype.type(beta)  # keep the whole update in scan dtype
            for color, rows, fields_blk in zip(
                self._colors, self._color_rows, color_fields
            ):
                inputs = rows @ spins + fields_blk
                noise = rng.uniform(
                    -1.0, 1.0, size=(color.size, num_replicas)
                ).astype(dtype, copy=False)
                spins[color] = np.where(
                    np.tanh(beta_dt * inputs) + noise >= 0.0, one, -one
                )
            energies = batch_energies(spins)
            improved = energies < best_energies
            if improved.any():
                best_energies[improved] = energies[improved]
                best_spins[:, improved] = spins[:, improved]
            if record_energy:
                traces[:, sweep] = energies

        return BatchAnnealResult(
            last_samples=spins.T.copy(),
            last_energies=energies,
            best_samples=best_spins.T.copy(),
            best_energies=best_energies,
            num_sweeps=betas.size,
            energy_traces=traces,
        )


def random_sparse_ising(
    num_spins: int, degree: int = 3, rng=None, coupling_scale: float = 1.0
) -> SparseIsingModel:
    """Random regular-ish sparse Ising model (test/benchmark workload)."""
    if degree < 1 or degree >= num_spins:
        raise ValueError(f"degree must be in [1, {num_spins - 1}], got {degree}")
    if (num_spins * degree) % 2 != 0:
        raise ValueError(
            f"num_spins * degree must be even for a regular graph, "
            f"got {num_spins} * {degree}"
        )
    import networkx as nx
    from scipy import sparse as sp

    rng = ensure_rng(rng)
    graph = nx.random_regular_graph(degree, num_spins, seed=int(rng.integers(2**31)))
    rows, cols, data = [], [], []
    for i, j in graph.edges:
        weight = float(rng.uniform(-coupling_scale, coupling_scale))
        rows.extend((i, j))
        cols.extend((j, i))
        data.extend((weight, weight))
    coupling = sp.csr_matrix((data, (rows, cols)), shape=(num_spins, num_spins))
    fields = rng.uniform(-coupling_scale, coupling_scale, size=num_spins)
    return SparseIsingModel(coupling, fields)
