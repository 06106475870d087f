"""Fused block-diagonal multi-instance annealing — one kernel call per fleet.

``solve_many`` parallelises across *processes*; on a one-core container that
honestly measures ~1x.  At the paper's scale (many small/medium QKP/MKP
instances) the real win is algebraic: ``B`` independent Ising models form
one block-diagonal Hamiltonian, so a single lock-step scan can advance all
``B`` chains together and amortise the numpy dispatch overhead that
dominates at small ``N``.  Block-diagonal structure guarantees no
cross-instance rows — the same invariant the chromatic kernel exploits for
color classes (PR 4) — so per-instance trajectories stay *bit-identical* to
annealing each instance alone, provided each instance draws from its own
RNG stream.

Layout
------
Instances are stacked on a shared padded row grid: ``npad`` is the largest
instance size rounded up to the 32-spin block width, and every per-spin
array (spins, inputs, thresholds, block deltas) is *row-major*
``(npad, B, R)``.  A block tail ``local[j:]`` is then one contiguous
``(m, B*R)`` slab, so each scan step is a handful of basic-slice numpy
calls over the whole batch, whatever ``B`` is.  Padding rows carry spin
``-1``, threshold ``+inf`` and zero couplings, so they never flip, never
consume noise, and contribute nothing to energies.  Each instance keeps
its own :class:`~repro.ising._lockstep.AnnealProgram` (contiguous dtype
cast + col/sub block decomposition, built once per fleet), reusing the
build-once/``set_fields``-many contract of the single-instance kernel.

Bit-identity contract
---------------------
For every instance ``b``, the fused scan performs *exactly* the arithmetic
of :func:`repro.ising._lockstep.lockstep_anneal` run on instance ``b``
alone with generator ``spawn_rngs(seed, B)[b]``:

- noise is drawn per instance (``(n_b, R)`` per sweep, ``(R, n_b)``
  initial states) from that instance's own spawned stream, in the same
  order as a standalone :class:`~repro.ising.pbit.PBitMachine`;
- the speculative event loop runs over the *union* of flip rows across
  instances, and each event updates every chain at once: the deltas are
  the standalone ``new - old`` (exactly ``-2 * spin`` where a chain flips,
  ``+0.0`` where it does not), and the in-block correction adds
  ``J_b[jf, jf+1:] * delta`` to every instance's tail.  On a chain that
  does not flip at that row the correction is a sum with a zero, which
  leaves every nonzero local input unchanged and can at most turn a
  ``-0.0`` into ``+0.0`` — invisible to the ``>=`` threshold test — so
  each instance still sees its own event sequence exactly.  Spins take
  the block's deltas once, at block end: the scan never reads a row at or
  before the current event again;
- block flips hit the global inputs as one ``np.matmul`` per group of
  active instances with the same ``(n_b, width)``: the group's stacked
  column blocks ``(G, n_b, width)`` against its contiguous deltas
  ``(G, width, R)``.  numpy runs a stacked matmul as one BLAS call per
  slice with that slice's shapes and strides, so every member gets its
  standalone ``cols @ deltas`` call; no contraction dimension is
  zero-padded (that is not bit-safe).  A member without flips in the
  block adds an exact zero product, which again can only change the sign
  of a zero input;
- per-instance energies are float64 einsums over a contiguous copy of the
  instance's ``(n_b, R)`` rows — the standalone accounting, shapes
  included.

The contract is pinned by ``tests/ising/test_fleet.py`` (kernel level) and
``tests/core/test_fleet_engine.py`` (SAIM level); it is what makes
``solve_many(strategy="fused")`` interchangeable with the process pool.
"""

from __future__ import annotations

import numpy as np

from repro.ising._lockstep import BLOCK, AnnealProgram
from repro.ising.backend import BatchAnnealResult, resolve_dtype
from repro.ising.model import IsingModel
from repro.utils.rng import spawn_rngs

__all__ = ["FleetProgram", "FleetMachine", "FleetAnnealResult"]


class FleetProgram:
    """Once-per-fleet preparation of ``B`` couplings for the fused scan.

    Owns everything that depends only on ``(couplings, dtype)``: one
    :class:`AnnealProgram` per instance (contiguous cast + block
    decomposition) plus the cross-instance stacks the fused event loop
    consumes — per-block ``(B, BLOCK, BLOCK)`` sub-coupling tensors, padded
    packed fields, and per-instance offsets.  Like the single-instance
    program, it is built once and reprogrammed many times: the fleet
    engine's K outer iterations call :meth:`set_fields` per instance and
    never touch couplings.
    """

    def __init__(self, couplings, dtype=None):
        couplings = list(couplings)
        if not couplings:
            raise ValueError("a fleet needs at least one instance")
        self.dtype = resolve_dtype(dtype)
        self.programs = [AnnealProgram(c, dtype=self.dtype) for c in couplings]
        self.sizes = np.array([p.num_spins for p in self.programs])
        if (self.sizes == 0).any():
            raise ValueError("fleet instances must have at least one spin")
        self.num_instances = len(self.programs)
        self.max_spins = int(self.sizes.max())
        self.padded_spins = BLOCK * ((self.max_spins + BLOCK - 1) // BLOCK)
        self.starts = tuple(range(0, self.padded_spins, BLOCK))
        # Per block k: (B, BLOCK, BLOCK) stacked in-block couplings, zero
        # where an instance has no rows in the block.
        self.sub_stacks = []
        for ki, i0 in enumerate(self.starts):
            stack = np.zeros(
                (self.num_instances, BLOCK, BLOCK), dtype=self.dtype
            )
            for b, program in enumerate(self.programs):
                width = min(BLOCK, program.num_spins - i0)
                if width > 0:
                    stack[b, :width, :width] = program.sub_blocks[ki]
            self.sub_stacks.append(stack)
        self.fields = np.zeros(
            (self.num_instances, self.padded_spins), dtype=self.dtype
        )
        self.offsets = np.zeros(self.num_instances)
        self._scan_key = None
        self._scan_stacks = None

    def scan_stacks_for(self, indices: tuple) -> tuple[list, list]:
        """The scan's coupling operands for the active set ``indices``.

        Returns ``(sub_rows, col_groups)``, one entry per block ``k``:

        - ``sub_rows[k]`` is ``sub_stacks[k]`` restricted to ``indices``
          and transposed to row-major ``(BLOCK, BLOCK, B_act, 1)``, so
          ``sub_rows[k][j, j + 1:]`` is every instance's in-block coupling
          row ``j`` in the scan's ``(rows, B, R)`` layout;
        - ``col_groups[k]`` holds one ``(members, cols)`` pair per
          distinct ``(n_b, width)`` among the active instances owning rows
          in the block: ``members`` are their positions in ``indices`` and
          ``cols`` stacks their standalone column blocks into one
          contiguous ``(G, n_b, width)`` array.

        The fleet engine calls the kernel thousands of times on a slowly
        shrinking active set, so the operands are cached per active-set
        key instead of rebuilt every anneal.
        """
        if indices != self._scan_key:
            rows = list(indices)
            sub_rows = [
                np.ascontiguousarray(stack[rows].transpose(1, 2, 0)[..., None])
                for stack in self.sub_stacks
            ]
            col_groups = []
            for ki, i0 in enumerate(self.starts):
                groups = {}
                for row, b in enumerate(indices):
                    width = self.block_width(b, i0)
                    if width > 0:
                        key = (int(self.sizes[b]), width)
                        groups.setdefault(key, []).append(row)
                col_groups.append([
                    (np.array(members), np.stack([
                        self.programs[indices[row]].col_blocks[ki]
                        for row in members
                    ]))
                    for members in groups.values()
                ])
            self._scan_key = indices
            self._scan_stacks = (sub_rows, col_groups)
        return self._scan_stacks

    def block_width(self, index: int, start: int) -> int:
        """Rows instance ``index`` owns in the block starting at ``start``."""
        return max(0, min(BLOCK, int(self.sizes[index]) - start))

    def set_fields(self, index: int, fields, offset: float | None = None) -> None:
        """Reprogram instance ``index``'s linear fields (and offset).

        Copies into the packed buffer — the caller keeps ownership of
        ``fields`` and may reuse the array (the fleet engine loops one
        buffer per instance), mirroring the backend ``set_fields`` contract.
        """
        fields = np.asarray(fields)
        n = int(self.sizes[index])
        if fields.shape != (n,):
            raise ValueError(
                f"instance {index} fields must have shape ({n},), "
                f"got {fields.shape}"
            )
        self.fields[index, :n] = fields
        if offset is not None:
            self.offsets[index] = float(offset)


class FleetAnnealResult:
    """Array-shaped outcome of one fused fleet anneal.

    Holds the packed per-instance results; :meth:`instance` serves the
    standalone-shaped :class:`~repro.ising.backend.BatchAnnealResult` view
    of one instance (a copy, trimmed to the instance's own ``n_b`` rows).
    ``indices`` are the fleet indices that were annealed (the active
    subset when the engine has masked finished instances out).
    """

    def __init__(self, indices, sizes, last_spins, last_energies,
                 best_spins, best_energies, num_sweeps, energy_traces=None):
        self.indices = list(indices)
        self._sizes = sizes
        self._last_spins = last_spins        # (npad, B_act, R)
        self._last_energies = last_energies  # (B_act, R)
        self._best_spins = best_spins
        self._best_energies = best_energies
        self.num_sweeps = int(num_sweeps)
        self._energy_traces = energy_traces  # (B_act, R, sweeps) | None
        self._rows = {index: row for row, index in enumerate(self.indices)}

    def __len__(self) -> int:
        return len(self.indices)

    def instance(self, index: int) -> BatchAnnealResult:
        """Instance ``index``'s result in standalone machine shape."""
        try:
            row = self._rows[index]
        except KeyError:
            raise KeyError(
                f"instance {index} was not annealed in this call "
                f"(active: {self.indices})"
            ) from None
        n = int(self._sizes[row])
        traces = None
        if self._energy_traces is not None:
            traces = self._energy_traces[row].copy()
        return BatchAnnealResult(
            last_samples=self._last_spins[:n, row].T.copy(),
            last_energies=self._last_energies[row].copy(),
            best_samples=self._best_spins[:n, row].T.copy(),
            best_energies=self._best_energies[row].copy(),
            num_sweeps=self.num_sweeps,
            energy_traces=traces,
        )


class FleetMachine:
    """``B`` independent p-bit machines advanced by one fused scan.

    Parameters
    ----------
    models:
        The :class:`~repro.ising.model.IsingModel` per instance.  Couplings
        are prepared once (:class:`FleetProgram`); fields are reprogrammable
        per instance via :meth:`set_fields`.
    rng:
        A seed-like (``int`` / ``SeedSequence`` / ``Generator``) that is
        *spawned* into one child stream per instance via
        :func:`repro.utils.rng.spawn_rngs`, or an explicit sequence of
        ``B`` generators.  Instance ``b`` then draws exactly what a
        standalone :class:`~repro.ising.pbit.PBitMachine` built on
        ``spawn_rngs(rng, B)[b]`` would draw — the bit-identity anchor
        shared with ``strategy="process"`` job seeding.
    dtype:
        Coefficient storage / scan precision (``"float64"`` default).
    """

    #: The registered backend each fused instance runs; the engine's
    #: error messages name it.
    backend_name = "pbit"

    def __init__(self, models, rng=None, dtype=None):
        models = list(models)
        for b, model in enumerate(models):
            if not isinstance(model, IsingModel):
                raise TypeError(
                    f"models[{b}] must be an IsingModel, "
                    f"got {type(model).__name__}"
                )
        self.program = FleetProgram(
            [model.coupling for model in models], dtype=dtype
        )
        if isinstance(rng, (list, tuple)):
            rngs = list(rng)
            if len(rngs) != len(models) or not all(
                isinstance(r, np.random.Generator) for r in rngs
            ):
                raise ValueError(
                    f"explicit rng sequence must hold {len(models)} "
                    f"numpy Generators"
                )
            self._rngs = rngs
        else:
            self._rngs = spawn_rngs(rng, len(models))
        for b, model in enumerate(models):
            self.program.set_fields(b, model.fields, model.offset)

    @property
    def num_instances(self) -> int:
        """Number of fleet instances ``B``."""
        return self.program.num_instances

    @property
    def instance_sizes(self) -> tuple[int, ...]:
        """Per-instance spin counts ``n_b``."""
        return tuple(int(n) for n in self.program.sizes)

    @property
    def dtype(self) -> np.dtype:
        """Coefficient storage precision of the fused scan."""
        return self.program.dtype

    @property
    def rngs(self) -> list[np.random.Generator]:
        """The per-instance noise streams (spawned or explicit)."""
        return self._rngs

    def set_fields(self, index: int, fields, offset: float | None = None) -> None:
        """Reprogram one instance's linear fields (see ``FleetProgram``)."""
        self.program.set_fields(index, fields, offset)

    def anneal_fleet(
        self,
        beta_schedule,
        num_replicas: int = 1,
        active=None,
        record_energy: bool = False,
        track_best: bool = True,
    ) -> FleetAnnealResult:
        """One fused annealing shot of ``R`` replicas per active instance.

        ``active`` selects a subset of fleet indices (default: all); masked
        instances draw no noise, run no events and pay no matmuls — this is
        how the fleet engine compacts finished instances away.  Every
        active instance's chain is bit-identical to a standalone
        ``PBitMachine`` run on its own stream, whatever the active set
        (speculation re-runs at other instances' events reproduce the same
        decisions, so the interleaving is unobservable per instance).

        ``track_best=False`` skips the per-sweep energy accounting that
        only feeds ``best_*`` (and traces): the chain itself is untouched —
        spins and inputs advance identically — and ``last_energies`` are
        computed once from the final maintained arrays, which yields the
        exact same float64 values the tracked path reports for the last
        sweep.  SAIM's default read-out consumes only the last sample, so
        the fleet engine runs this mode whenever ``read_best`` is off; the
        returned ``best_*`` then alias the ``last_*`` values.
        """
        betas = np.asarray(beta_schedule, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("beta_schedule must be a non-empty 1-D sequence")
        if num_replicas < 1:
            raise ValueError(
                f"num_replicas must be >= 1, got {num_replicas}"
            )
        if record_energy and not track_best:
            raise ValueError(
                "record_energy needs the per-sweep accounting; "
                "pass track_best=True"
            )
        if active is None:
            indices = list(range(self.num_instances))
        else:
            indices = [int(b) for b in active]
            if len(set(indices)) != len(indices):
                raise ValueError(f"active indices must be unique, got {indices}")
            for b in indices:
                if not 0 <= b < self.num_instances:
                    raise ValueError(
                        f"active index {b} out of range "
                        f"(fleet has {self.num_instances} instances)"
                    )
            if not indices:
                raise ValueError("active must select at least one instance")
        return _fleet_anneal(
            self.program, self._rngs, betas, num_replicas, indices,
            record_energy, track_best,
        )


#: Noise-chunk memory budget (doubles): threshold tables for several sweeps
#: are drawn and transformed in one batched pass per instance stream, which
#: amortises the per-sweep generator and ufunc dispatch that dominates at
#: small N.  Chunked draws consume each stream in exactly the per-sweep
#: order (C-order fill), so bit-identity is preserved.
_CHUNK_DOUBLES = 1 << 20


def _fleet_anneal(program, rngs, betas, num_replicas, indices, record_energy,
                  track_best):
    """The fused lock-step scan over the active instances."""
    dtype = program.dtype
    one = dtype.type(1.0)
    two = dtype.type(2.0)
    npad = program.padded_spins
    num_active = len(indices)
    lanes = num_active * num_replicas            # chains per spin row
    sizes = program.sizes[indices]
    programs = [program.programs[b] for b in indices]
    streams = [rngs[b] for b in indices]
    fields2 = program.fields[indices]            # (B, npad), dtype
    offsets = program.offsets[indices]           # (B,)
    sub_rows, col_groups = program.scan_stacks_for(tuple(indices))

    pm = np.array([-1.0, 1.0])
    # Padding rows: spin -1, threshold +inf, zero couplings — the decide
    # rule yields delta 0 there forever, and they consume no noise.
    spins3 = np.full((npad, num_active, num_replicas), -one, dtype=dtype)
    inputs3 = np.zeros((npad, num_active, num_replicas), dtype=dtype)
    for row, (prog, stream) in enumerate(zip(programs, streams)):
        n = int(sizes[row])
        # Same draw as PBitMachine.anneal_many: (R, n) choice, then the
        # kernel's contiguous transpose-cast.
        states = stream.choice(pm, size=(num_replicas, n))
        spins = np.ascontiguousarray(states.T, dtype=dtype)
        spins3[:n, row] = spins
        inputs3[:n, row] = prog.initial_inputs(spins, fields2[row, :n])

    def instance_energies(out):
        # Standalone float64 accounting per instance, standalone shapes:
        # einsums over a contiguous (n_b, R) copy of the instance's rows,
        # taken from instance-major (B, npad, R) copies.
        # Zero-padded batched reductions are NOT bit-safe (pairwise-
        # summation splits move), so this stays a per-instance loop.
        spins_im = np.ascontiguousarray(spins3.transpose(1, 0, 2))
        inputs_im = np.ascontiguousarray(inputs3.transpose(1, 0, 2))
        for row in range(num_active):
            n = int(sizes[row])
            out[row] = (
                -0.5 * np.einsum(
                    "ir,ir->r", spins_im[row, :n], inputs_im[row, :n],
                    dtype=np.float64,
                )
                - 0.5 * np.einsum(
                    "i,ir->r", fields2[row, :n], spins_im[row, :n],
                    dtype=np.float64,
                )
                + offsets[row]
            )
        return out

    if track_best:
        energies2 = instance_energies(np.empty((num_active, num_replicas)))
        best_energies2 = energies2.copy()
        best_spins3 = spins3.copy()
    traces = (
        np.empty((num_active, num_replicas, betas.size))
        if record_energy else None
    )

    num_sweeps = betas.size
    chunk_sweeps = max(
        1, min(num_sweeps, _CHUNK_DOUBLES // (num_active * npad * num_replicas))
    )
    noise4 = np.full(
        (chunk_sweeps, npad, num_active, num_replicas), -1.0
    )
    deltas = np.zeros((BLOCK, num_active, num_replicas), dtype=dtype)
    deltas_im = deltas.transpose(1, 0, 2)        # instance-major view

    for c0 in range(0, num_sweeps, chunk_sweeps):
        c1 = min(c0 + chunk_sweeps, num_sweeps)
        span = c1 - c0
        chunk_betas = betas[c0:c1]
        # Per-instance noise from each instance's own stream, several
        # sweeps at a time — a (span, n_b, R) draw consumes the stream in
        # exactly the standalone per-sweep order.
        for row, stream in enumerate(streams):
            n = int(sizes[row])
            noise4[:span, :n, row] = stream.uniform(
                -1.0, 1.0, size=(span, n, num_replicas)
            )
        # Fold the whole chunk's noise into threshold tables in two
        # batched elementwise passes: arctanh(-1) = -inf maps padding to
        # +inf after the division by -beta.  beta = 0 sweeps get the
        # standalone sign-split table instead.
        with np.errstate(divide="ignore", invalid="ignore"):
            thr4 = np.arctanh(noise4[:span])
            np.divide(
                thr4, -chunk_betas[:, None, None, None], out=thr4
            )
        for s in np.nonzero(chunk_betas == 0.0)[0]:
            thr4[s] = np.where(noise4[s] >= 0.0, -np.inf, np.inf)
        thr4 = thr4.astype(dtype, copy=False)

        for sweep in range(c0, c1):
            thresholds3 = thr4[sweep - c0]                 # (npad, B, R)

            for ki, i0 in enumerate(program.starts):
                sub = sub_rows[ki]                    # (BLOCK, BLOCK, B, 1)
                local = inputs3[i0:i0 + BLOCK].copy()      # (BLOCK, B, R)
                thr_blk = thresholds3[i0:i0 + BLOCK]
                spins_blk = spins3[i0:i0 + BLOCK]          # view; writes land
                # Bool mirror of the block spins: the Gibbs decide
                # ``sign(tanh) + u`` as a threshold test flips exactly
                # where (input >= tau) disagrees with (spin == +1).  Rows
                # at or before an event are never read again, so the
                # mirror needs no updates within the block.
                pos = spins_blk > 0
                flipped = False
                j = 0
                while j < BLOCK:
                    # Speculative decide over every chain's tail at once —
                    # elementwise, so values per instance are identical
                    # to the standalone scan.
                    flip = (local[j:] >= thr_blk[j:]) != pos[j:]
                    first = int(flip.argmax())
                    if not flip.item(first):
                        break
                    step = first // lanes
                    jf = j + step
                    # The standalone delta new - old for every chain:
                    # exactly -2 * spin where it flips, and the zeroed
                    # buffer's +0.0 elsewhere.
                    delta = np.multiply(
                        spins_blk[jf], -two, out=deltas[jf], where=flip[step]
                    )
                    if jf + 1 < BLOCK:
                        # In-block coupling correction, elementwise per
                        # chain (bit-safe to batch).
                        local[jf + 1:] += sub[jf, jf + 1:] * delta
                    flipped = True
                    j = jf + 1
                if flipped:
                    spins_blk += deltas
                    # Global input update: one stacked matmul per group of
                    # equal-shape instances, i.e. each member's standalone
                    # BLAS call (no zero-padded contraction dimension).
                    # The fancy-indexed deltas are a fresh contiguous
                    # (G, width, R) array, which keeps the call on BLAS.
                    for members, cols in col_groups[ki]:
                        n, width = cols.shape[1:]
                        inputs3[:n, members] += np.matmul(
                            cols, deltas_im[members, :width]
                        ).transpose(1, 0, 2)
                    deltas[...] = 0

            if track_best:
                energies2 = instance_energies(energies2)
                improved = energies2 < best_energies2
                if improved.any():
                    best_energies2[improved] = energies2[improved]
                    rows, reps = np.nonzero(improved)
                    best_spins3[:, rows, reps] = spins3[:, rows, reps]
                if record_energy:
                    traces[:, :, sweep] = energies2

    if track_best:
        last_energies = energies2.copy()
    else:
        # One end-of-run accounting pass: the maintained spins/inputs are
        # the last sweep's arrays, so these are the exact float64 values
        # the tracked path reports as its final per-sweep energies.
        last_energies = instance_energies(
            np.empty((num_active, num_replicas))
        )
        best_energies2 = last_energies.copy()
        best_spins3 = spins3.copy()

    for row, prog in enumerate(programs):
        n = int(sizes[row])
        prog.retain(
            spins3[:n, row].copy(), inputs3[:n, row].copy(), fields2[row, :n]
        )
    return FleetAnnealResult(
        indices=indices,
        sizes=sizes,
        last_spins=spins3,
        last_energies=last_energies,
        best_spins=best_spins3,
        best_energies=best_energies2,
        num_sweeps=num_sweeps,
        energy_traces=traces,
    )
