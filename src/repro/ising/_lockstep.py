"""Numpy lock-step replica kernel of the p-bit machines.

The p-bit machines run the compiled sweep of :mod:`repro.ising._native`
when it loads; this scan is their no-compiler fallback and the parity
reference the compiled sweep is tested against.  It advances ``R``
independent chains in lock-step over the same sweep/spin scan.  The
caller supplies the noise and the per-spin acceptance rule; the machinery
that makes the scan fast in pure numpy is here:

- per-sweep noise is folded into per-spin *threshold tables* outside the
  scan (``thresholds_for``), so the hot loop is comparisons only;
- a 32-spin block's decisions are *speculated* in one vectorized call
  (``decide``) assuming no intra-block flips; python-level iteration
  happens only at actual flip events — decisions before the first flip are
  provably exact, the rest are re-speculated after the in-block coupling
  correction.  Frozen low-temperature blocks cost a few array ops total;
- a block's accumulated flips hit the global input fields as one BLAS
  matmul instead of one rank-1 update per flip, and energies are
  recomputed from the maintained inputs once per sweep.

The scan runs in a configurable storage/compute ``dtype``: ``float32``
halves the memory traffic of the block matmuls (sgemm vs dgemm).  Per-sweep
*energies* are always accumulated in float64 from the maintained inputs
(:func:`sweep_energies`), so integer-weight Hamiltonians — exactly
representable in float32 — report exact energies at either precision, and
float-weight models stay within float32 tolerance of the exact
Hamiltonian.

Program/run split
-----------------
SAIM calls the kernel once per outer iteration on the *same* coupling
matrix — only the linear fields move between calls.  The coupling-only
setup therefore lives in :class:`AnnealProgram`, built once per machine
and passed back into every run: the contiguous dtype cast, and — built
lazily, because only this numpy scan reads them — the ``col_blocks`` /
``sub_blocks`` decomposition (≈ N/32 full-matrix copies).  The program
also keeps *solve-resident* annealing state for both kernels: the final
spins of the previous run together with their coupling inputs ``J @ s``,
so a warm-restarted run (same spins back in) reprograms its input fields
from the field delta instead of paying a fresh ``O(N^2 R)`` matmul, and
it keeps the compiled sweep's last workspace (its checked buffers), so the
K runs of a solve set them up once.  The resident state is replica-major
``(R, n)``, the layout of the start states and of that workspace; this
scan runs in ``(n, R)`` and transposes at its boundary.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Spins per block: large enough to amortize the per-block global-field
# matmul, small enough that in-block corrections stay cache-resident.
BLOCK = 32


class AnnealProgram:
    """Once-per-solve preparation of a coupling matrix for the kernels.

    Owns everything that depends only on ``(J, dtype)``: the contiguous
    dtype-cast coupling both kernels read, and the speculative-block
    decomposition only the numpy scan reads (built on its first use).  A
    machine builds one program and hands it to every run, so the K outer
    iterations of a SAIM solve pay the O(N^2) setup exactly once instead
    of K times.

    The program is also the keeper of *solve-resident* state: after each
    run it keeps the final ``(R, n)`` spins and their coupling inputs
    ``J s``.  When the next run starts from exactly those spins (the
    engine's ``restart="warm"`` mode), :meth:`start_inputs` serves the new
    input fields as ``cached + h`` — an O(N R) add — instead of
    recomputing the O(N^2 R) matmul.  ``warm_hits`` / ``cold_starts``
    count the two paths (exposed for tests and the outer-loop benchmark).
    """

    def __init__(self, coupling, dtype=None):
        self.dtype = np.dtype(np.float64) if dtype is None else np.dtype(dtype)
        self.coupling = np.ascontiguousarray(coupling, dtype=self.dtype)
        if self.coupling.ndim != 2 or (
            self.coupling.shape[0] != self.coupling.shape[1]
        ):
            raise ValueError(
                f"coupling must be square, got shape {self.coupling.shape}"
            )
        n = self.coupling.shape[0]
        self.num_spins = n
        self.starts = tuple(range(0, n, BLOCK))
        self.warm_hits = 0
        self.cold_starts = 0
        self._resident_spins = None
        self._resident_coupling_inputs = None
        self._workspace = None

    @cached_property
    def col_blocks(self) -> list:
        """Per block, the coupling columns ``J[:, i0:i0 + BLOCK]``."""
        return [
            np.ascontiguousarray(self.coupling[:, i0:i0 + BLOCK])
            for i0 in self.starts
        ]

    @cached_property
    def sub_blocks(self) -> list:
        """Per block, the in-block couplings ``J[i0:i1, i0:i1]``."""
        return [
            np.ascontiguousarray(self.coupling[i0:i0 + BLOCK, i0:i0 + BLOCK])
            for i0 in self.starts
        ]

    def workspace(self, sweep, replicas: int, chunk: int):
        """The compiled ``sweep``'s workspace for ``replicas`` chains and
        ``chunk``-sweep noise tables on this coupling.

        The last one built is kept and served again while the sweep, the
        replica count and the chunk stay the same (SAIM's K anneals share
        one), and rebuilt when any of them changes.
        """
        work = self._workspace
        if (work is None or work.sweep is not sweep
                or work.replicas != replicas or work.chunk != chunk):
            work = self._workspace = sweep.workspace(
                self.coupling, replicas, chunk
            )
        return work

    def start_inputs(self, states, fields, out) -> None:
        """Write ``J s + h`` of the ``(R, n)`` start ``states`` into the
        ``(R, n)`` ``out``.

        Serves the resident ``J s`` when ``states`` are exactly the
        previous run's final spins (warm restart); otherwise — a cold
        start — runs the matmul on the contiguous ``(n, R)`` spins.
        """
        resident = self._resident_spins
        if (resident is not None and resident.shape == states.shape
                and (resident == states).all()):
            self.warm_hits += 1
            np.add(self._resident_coupling_inputs, fields, out=out)
        else:
            self.cold_inputs(states, fields, out)

    def cold_inputs(self, states, fields, out) -> None:
        """Write ``J s + h`` of the ``(R, n)`` ``states`` into the
        ``(R, n)`` ``out`` by the matmul on the contiguous ``(n, R)``
        spins: a cold start, which a start drawn for the run always is."""
        self.cold_starts += 1
        spins = np.ascontiguousarray(states.T, dtype=self.dtype)
        np.add(self.coupling @ spins, fields[:, None], out=out.T)

    def keep(self, spins, inputs, fields) -> None:
        """Keep a run's final ``(R, n)`` spins and their ``J s`` as
        solve-resident state.

        ``inputs`` are the kernel-maintained ``J s + h``; the fields are
        subtracted back out so the cache is field-independent (the whole
        point: the next run reprograms new fields on top).  ``spins`` are
        kept by reference: the caller hands over an array no one writes.
        """
        self._resident_spins = spins
        self._resident_coupling_inputs = inputs - fields

    def initial_inputs(self, spins, fields, resume: bool = True) -> np.ndarray:
        """:meth:`start_inputs` (or, without ``resume``,
        :meth:`cold_inputs`) in the numpy scan's ``(n, R)`` layout."""
        inputs = np.empty(spins.shape, dtype=self.dtype)
        start = self.start_inputs if resume else self.cold_inputs
        start(spins.T, fields, inputs.T)
        return inputs

    def retain(self, spins, inputs, fields) -> None:
        """:meth:`keep` in the numpy scan's ``(n, R)`` layout."""
        self.keep(spins.T, inputs.T, fields)


def sweep_energies(spins, inputs, fields, offset: float) -> np.ndarray:
    """Float64 energies ``H = -1/2 s.I - 1/2 h.s + c`` of ``(n, R)`` chains.

    ``inputs`` are the maintained ``I = J s + h``.  Accumulated in float64
    whatever the storage dtype, so integer-weight models report exact
    energies.
    """
    return (
        -0.5 * np.einsum("ir,ir->r", spins, inputs, dtype=np.float64)
        - 0.5 * np.einsum("i,ir->r", fields, spins, dtype=np.float64)
        + offset
    )


def lockstep_anneal(
    program: AnnealProgram,
    fields: np.ndarray,
    offset: float,
    betas: np.ndarray,
    states: np.ndarray,
    thresholds_for,
    decide,
    record_energy: bool = False,
    resume: bool = True,
):
    """Advance ``R`` lock-step chains; returns final/best states + energies.

    Parameters
    ----------
    program:
        The prepared :class:`AnnealProgram` of the coupling ``J``: its
        cast coupling and block decomposition, its dtype (the scan's
        storage/compute precision; the returned energies are float64
        regardless, see module docstring) and its solve-resident state.
    fields / offset:
        The rest of the dense Ising Hamiltonian ``H = -1/2 s.J s - h.s + c``.
    betas:
        Inverse temperature per sweep.
    states:
        ``(R, n)`` initial ±1 spins (consumed; not modified in place).
    thresholds_for:
        ``thresholds_for(beta) -> (n, R)`` per-sweep threshold table; this
        is where the sampler draws its noise, so it is called exactly once
        per sweep, before the scan.  Tables are cast to the program's dtype
        here.
    decide:
        ``decide(thresholds_rows, input_rows, spin_rows) -> delta_rows``:
        the sampler's acceptance rule, vectorized over a ``(m, R)`` tail of
        a block; must return the spin deltas (0 where no flip) *assuming
        the given input fields are current*.
    record_energy:
        Also return ``(R, sweeps)`` per-sweep energy traces (else None).
    resume:
        Serve the initial inputs from the program's resident cache when
        ``states`` are its resident spins (a warm restart).  ``False``
        always runs the matmul, as for a start drawn for this run.

    Returns ``(last_spins, last_energies, best_spins, best_energies,
    traces)`` with spins in ``(n, R)`` layout.
    """
    dtype = program.dtype
    num_replicas = states.shape[0]
    fields = np.asarray(fields, dtype=dtype)
    spins = np.ascontiguousarray(states.T, dtype=dtype)  # (n, R): row i = spin i
    inputs = program.initial_inputs(spins, fields, resume)

    energies = sweep_energies(spins, inputs, fields, offset)
    best_energies = energies.copy()
    best_spins = spins.copy()
    traces = np.empty((num_replicas, betas.size)) if record_energy else None

    starts = program.starts
    col_blocks = program.col_blocks
    sub_blocks = program.sub_blocks

    for sweep, beta in enumerate(betas):
        thresholds = np.asarray(thresholds_for(beta), dtype=dtype)

        for i0, cols, sub in zip(starts, col_blocks, sub_blocks):
            size = cols.shape[1]
            local = inputs[i0:i0 + size].copy()
            thr_blk = thresholds[i0:i0 + size]
            spins_blk = spins[i0:i0 + size]  # view; writes hit `spins`
            deltas = np.zeros((size, num_replicas), dtype=dtype)
            flipped_any = False
            j = 0
            while j < size:
                spec_delta = decide(thr_blk[j:], local[j:], spins_blk[j:])
                flip_rows = spec_delta.any(axis=1)
                if not flip_rows.any():
                    break
                step = int(np.argmax(flip_rows))
                jf = j + step
                delta = spec_delta[step]
                deltas[jf] = delta
                spins_blk[jf] += delta
                if jf + 1 < size:
                    local[jf + 1:] += sub[jf, jf + 1:, None] * delta
                flipped_any = True
                j = jf + 1
            if flipped_any:
                inputs += cols @ deltas

        energies = sweep_energies(spins, inputs, fields, offset)
        improved = energies < best_energies
        if improved.any():
            best_energies[improved] = energies[improved]
            best_spins[:, improved] = spins[:, improved]
        if record_energy:
            traces[:, sweep] = energies

    program.retain(spins, inputs, fields)
    return spins, energies, best_spins, best_energies, traces

