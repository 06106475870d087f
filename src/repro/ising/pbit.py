"""Software emulation of a probabilistic-bit (p-bit) Ising machine.

Implements Section III-B of the paper.  Each p-bit ``m_i = ±1`` receives the
input (eq. 9)::

    I_i = sum_j J_ij m_j + h_i

and updates to (eq. 10)::

    m_i = sign( tanh(beta * I_i) + U(-1, 1) )

Sequentially sweeping the p-bits is Gibbs sampling of the Boltzmann
distribution ``P(m) ~ exp(-beta * H(m))`` (eq. 11).  To find low-energy
states the machine is annealed with a beta schedule (linear ``0 -> beta_max``
in the paper), and — exactly as in the paper — the *last* sample of a run is
what the surrounding algorithm reads out.

The machine implements the :class:`repro.ising.backend.AnnealingBackend`
protocol; :meth:`PBitMachine.anneal_many` is the canonical entry point.
Every replica count — **including R = 1** — and the fleet
(:mod:`repro.ising.fleet`) run one function, :func:`pbit_anneal`.  It
draws a random start and the per-sweep noise from the machine's own
generator and folds the noise into acceptance *thresholds*:
``sign(tanh(beta I_i) + u_i) = +1`` exactly when
``I_i >= -atanh(u_i) / beta``, so each p-bit update is one comparison.
The sweep itself runs compiled (:mod:`repro.ising._native`) when the
system compiler could build it: C draws the start spins and the noise
from the generator's own bit stream, in numpy's order, numpy takes the
``arctanh`` of that table, and one C loop over sweeps, spins and then
replicas turns each sweep's slab into thresholds, reads it in draw order,
makes a rank-1 input update per flip and seeds a tracked anneal's start
energies.  Otherwise it runs as the numpy lock-step scan of
:mod:`repro.ising._lockstep`, which draws through numpy
(:func:`random_spins`, :func:`_draw_arctanh`) and finishes the thresholds
in numpy, with the same IEEE operations.  Both consume the same stream in
the same order and take the same decisions, so they compute the same
chain; energies differ only by the rounding of the maintained inputs
(none on integer weights).  ``kernel="serial"`` is the escape hatch back
to the pure-python per-spin scan of eq. 10 (useful for parity tests and
as its ground-truth spelling).

The coupling-only preparation (contiguous dtype cast, plus the numpy
scan's block decomposition when that scan runs) is built once per machine
as an :class:`repro.ising._lockstep.AnnealProgram` and reused across
``set_fields`` calls — SAIM's K outer iterations reprogram fields into a
standing program instead of paying the O(N^2) setup each time.  The
program also keeps the compiled sweep's workspace, whose buffers every
run reuses: a machine serves one caller at a time.

The ``dtype`` knob selects the coefficient storage / scan precision
(``"float64"`` default, ``"float32"`` for the big-R fast path); energies are
always accumulated in float64, so integer-weight models report exact
energies at either precision.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ising import _native
from repro.ising._lockstep import AnnealProgram, lockstep_anneal
from repro.ising.backend import (
    AnnealResult,
    BatchAnnealResult,
    batch_from_runs,
    check_start,
    resolve_dtype,
)
from repro.ising.energy import ising_energy
from repro.ising.model import IsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_integer

__all__ = ["AnnealResult", "PBitMachine", "pbit_anneal"]

#: Noise-chunk budget (doubles) of the compiled path: several sweeps'
#: noise is drawn and turned into thresholds per call.  A
#: ``(sweeps, n, R)`` draw consumes the generator in exactly the per-sweep
#: order, so chunking never changes the chain.
_CHUNK_DOUBLES = 1 << 15

_SPINS = np.array([-1.0, 1.0])


def pbit_anneal(program: AnnealProgram, fields, offset: float, betas,
                num_replicas: int, rng, states=None,
                record_energy: bool = False,
                track_best: bool = True) -> BatchAnnealResult:
    """Anneal ``num_replicas`` p-bit chains on ``program``'s coupling.

    The one p-bit kernel entry, shared by :class:`PBitMachine` and the
    fleet.  ``states`` are the ``(R, n)`` starting spins; when omitted,
    the start is drawn from ``rng`` first, as :func:`random_spins` draws
    it, and its inputs come from the matmul.  The noise then comes from
    ``rng`` as one ``(n, R)`` table per sweep, in sweep order.  Runs the
    compiled sweep when it loaded and the numpy lock-step scan otherwise —
    the same chain either way.  The run's final spins and inputs stay
    resident in ``program``; given ``states`` equal to them are a warm
    restart.

    ``track_best=False`` skips the per-sweep energy accounting that only
    feeds ``best_*`` and the traces: the chain is untouched, the last
    energies are exactly the tracked ones, and ``best_*`` alias
    ``last_*``.
    """
    betas = np.asarray(betas, dtype=float)
    n = program.num_spins
    fields = np.ascontiguousarray(fields, dtype=program.dtype)
    if fields.shape != (n,) or (
            states is not None and states.shape != (num_replicas, n)):
        raise ValueError(
            f"states {getattr(states, 'shape', None)} / fields "
            f"{fields.shape} do not match {num_replicas} replicas of a "
            f"{n}-spin program"
        )
    if record_energy and not track_best:
        raise ValueError(
            "record_energy needs the per-sweep accounting; pass track_best=True"
        )
    sweeps = _native.sweep_library()
    if sweeps is None:
        spins, energies, best_spins, best_energies, traces = _numpy_anneal(
            program, fields, offset, betas, num_replicas, states, rng,
            record_energy,
        )
    else:
        spins, energies, best_spins, best_energies, traces = _compiled_anneal(
            sweeps[program.dtype], program, fields, offset, betas,
            num_replicas, states, rng, record_energy, track_best,
        )
    if not track_best:
        best_spins, best_energies = spins, energies
    return BatchAnnealResult(
        last_samples=spins,
        last_energies=energies,
        best_samples=best_spins,
        best_energies=best_energies,
        num_sweeps=betas.size,
        energy_traces=traces,
    )


def random_spins(rng, shape) -> np.ndarray:
    """Uniform ±1 spins of ``shape`` from ``rng``.

    The values and the stream position of ``rng.choice([-1.0, 1.0],
    size=shape)``, drawn through ``rng.integers``, which costs less.  The
    compiled draw reproduces it: numpy's Lemire method at range 2 returns
    bit 31 of one ``next_uint32`` per spin.
    """
    return _SPINS[rng.integers(0, 2, size=shape)]


def _draw_arctanh(rng, out) -> np.ndarray:
    """Fill ``out`` with ``atanh(u)`` of fresh noise ``u ~ U(-1, 1)``.

    ``out`` is a C-contiguous float64 ``(sweeps, n, R)`` buffer.  The noise
    is drawn into it in place: ``2 r - 1`` over ``rng.random``'s ``r`` is
    ``rng.uniform(-1, 1, out.shape)`` bit for bit, and leaves the stream
    where that draw does.  ``arctanh`` keeps the sign of ``u``.  The numpy
    scan's draw; the compiled path draws the same values in C.
    """
    rng.random(out=out)
    out *= 2.0
    out -= 1.0
    with np.errstate(divide="ignore"):
        return np.arctanh(out, out=out)


def _draw_thresholds(rng, betas, out) -> np.ndarray:
    """Fill ``out`` with the acceptance thresholds of one sweep per beta.

    The numpy scan's finish of :func:`_draw_arctanh` (the compiled sweep
    runs the same IEEE operations itself):
    ``sign(tanh(beta I) + u) == +1  <=>  I >= -atanh(u) / beta``; a sweep
    with ``beta <= 0`` is pure noise (``+1`` exactly when ``u >= 0``).
    """
    _draw_arctanh(rng, out)
    noise_only = betas <= 0.0
    signs = out[noise_only] >= 0.0 if noise_only.any() else None
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= -betas[:, None, None]
    if signs is not None:
        out[noise_only] = np.where(signs, -np.inf, np.inf)
    return out


def _compiled_anneal(sweep, program, fields, offset, betas, num_replicas,
                     states, rng, record_energy, track_best):
    """:func:`pbit_anneal` on the compiled sweep, in the program's
    workspace (one noise chunk of up to ``_CHUNK_DOUBLES`` at a time).

    C draws each chunk's noise, after the start spins when ``states`` is
    ``None``; numpy takes its ``arctanh``, in place, under ``np.errstate``
    only when a draw hit the pole ``u == -1``.  C then turns the table
    into thresholds and, on a tracked anneal's first chunk, seeds the
    start energies and best state.  The workspace and the program's
    resident state are both replica-major ``(R, n)``, the layout of
    ``states``.
    """
    n = program.num_spins
    num_sweeps = betas.size
    chunk = min(num_sweeps,
                max(1, _CHUNK_DOUBLES // max(1, n * num_replicas)))
    work = program.workspace(sweep, num_replicas, chunk)
    work.fields[...] = fields
    if states is not None:
        program.start_inputs(states, fields, work.inputs)
        work.spins[...] = states
    traces = np.empty((num_replicas, num_sweeps)) if record_energy else None
    for t0 in range(0, num_sweeps, chunk):
        span = betas[t0:t0 + chunk]
        noise = work.noise[:span.size]
        drawn = t0 == 0 and states is None
        poles = work.draw(rng, span.size, drawn)
        if drawn:
            program.cold_inputs(work.spins, fields, work.inputs)
        if poles:
            with np.errstate(divide="ignore"):
                np.arctanh(noise, out=noise)
        else:
            np.arctanh(noise, out=noise)
        work.run(span, offset, traces, t0, track_best)
    program.keep(work.spins.copy(), work.inputs, fields)
    spins, energies = work.spins.copy(), work.energies.copy()
    if not track_best:
        return spins, energies, spins, energies, traces
    return (spins, energies, work.best_spins.copy(),
            work.best_energies.copy(), traces)


def _numpy_anneal(program, fields, offset, betas, num_replicas, states, rng,
                  record_energy):
    """:func:`pbit_anneal` on the numpy lock-step scan (the reference)."""
    n = program.num_spins
    resume = states is not None
    if not resume:
        states = random_spins(rng, (num_replicas, n))
    one = program.dtype.type(1.0)
    noise = np.empty((1, n, num_replicas))

    def thresholds_for(beta):
        return _draw_thresholds(rng, np.array([beta]), noise)[0]

    def decide(taus_rows, input_rows, spin_rows):
        return np.where(input_rows >= taus_rows, one, -one) - spin_rows

    spins, energies, best_spins, best_energies, traces = lockstep_anneal(
        program, fields, offset, betas, states, thresholds_for, decide,
        record_energy=record_energy, resume=resume,
    )
    return spins.T.copy(), energies, best_spins.T.copy(), best_energies, traces


class PBitMachine:
    """A p-bit Ising machine bound to one :class:`IsingModel`.

    Parameters
    ----------
    model:
        The Hamiltonian to sample from.  The coupling matrix is kept by
        reference; use :meth:`set_fields` to retarget the linear terms
        cheaply (this is how SAIM applies Lagrange-multiplier updates
        without rebuilding the machine).
    rng:
        Seed or generator for the p-bit noise.
    dtype:
        Coefficient storage / batched-scan precision, ``"float64"`` or
        ``"float32"``.  All energy read-outs are float64 regardless.
    kernel:
        ``"lockstep"`` (default) — every replica count, R = 1 included,
        runs :func:`pbit_anneal` (compiled sweep, numpy scan fallback);
        ``"serial"`` — R = 1 falls back to the pure-python per-spin
        reference scan (R > 1 always runs :func:`pbit_anneal`).
    """

    KERNELS = ("lockstep", "serial")

    def __init__(self, model: IsingModel, rng=None, dtype=None,
                 kernel: str = "lockstep"):
        if kernel not in self.KERNELS:
            raise ValueError(
                f"kernel must be one of {self.KERNELS}, got {kernel!r}"
            )
        self._dtype = resolve_dtype(dtype)
        self._coupling = np.ascontiguousarray(model.coupling, dtype=self._dtype)
        # Programmed lazily on first pbit_anneal run, then kept for the
        # machine's lifetime (the coupling never changes; SAIM only
        # reprograms fields).
        self._program = None
        self._fields = np.asarray(model.fields, dtype=self._dtype).copy()
        self._offset = model.offset
        self._kernel = kernel
        self._rng = ensure_rng(rng)

    @property
    def num_spins(self) -> int:
        """Number of p-bits."""
        return self._fields.size

    @property
    def dtype(self) -> np.dtype:
        """Coefficient storage precision of the machine."""
        return self._dtype

    @property
    def kernel(self) -> str:
        """R = 1 kernel selection (``"lockstep"`` or ``"serial"``)."""
        return self._kernel

    @property
    def program(self) -> AnnealProgram:
        """The machine's standing :class:`AnnealProgram` (built on first
        run; it shares the machine's cast coupling, and the numpy scan's
        block decomposition is built only if that scan runs)."""
        if self._program is None:
            self._program = AnnealProgram(self._coupling, dtype=self._dtype)
        return self._program

    @property
    def model(self) -> IsingModel:
        """Current Hamiltonian (couplings shared, fields copied)."""
        return IsingModel(self._coupling, self._fields.copy(), self._offset)

    def set_fields(self, fields, offset: float | None = None) -> None:
        """Reprogram the linear fields ``h`` (and optionally the offset).

        One cast, one copy: the values land directly in the machine-owned
        buffer, so the caller keeps ownership of ``fields`` and may reuse
        its array across calls (the engine does).
        """
        fields = np.asarray(fields)
        if fields.shape != self._fields.shape:
            raise ValueError(
                f"fields must have shape {self._fields.shape}, got {fields.shape}"
            )
        self._fields[...] = fields
        if offset is not None:
            self._offset = float(offset)

    def random_state(self) -> np.ndarray:
        """Uniform random ±1 spin vector."""
        return random_spins(self._rng, self.num_spins)

    def anneal_many(
        self,
        beta_schedule,
        num_replicas: int,
        initial=None,
        record_energy: bool = False,
    ) -> BatchAnnealResult:
        """Anneal ``num_replicas`` independent replicas in one call.

        Parameters
        ----------
        beta_schedule:
            Inverse temperature per sweep; its length is the number of
            Monte-Carlo sweeps (MCS), shared by every replica.
        num_replicas:
            Number of independent replicas ``R``.
        initial:
            Starting spins of shape ``(R, n)``, each ``-1`` or ``+1``;
            random if omitted.
        record_energy:
            Store per-sweep energies in ``energy_traces`` (``(R, sweeps)``).

        Every replica count runs :func:`pbit_anneal` on the machine's
        program; a machine built with ``kernel="serial"`` routes ``R = 1``
        through the pure-python reference scan instead (same chain, python
        per-spin loop).
        """
        betas = np.asarray(beta_schedule, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("beta_schedule must be a non-empty 1-D sequence")
        states = check_start(num_replicas, self.num_spins, initial)
        if num_replicas == 1 and self._kernel == "serial":
            if states is None:
                states = random_spins(self._rng, (1, self.num_spins))
            run = self._anneal_serial(betas, states[0], record_energy)
            return batch_from_runs([run])
        return pbit_anneal(
            self.program, self._fields, self._offset, betas, num_replicas,
            self._rng, states, record_energy,
        )

    def anneal(
        self,
        beta_schedule,
        initial=None,
        record_energy: bool = False,
    ) -> AnnealResult:
        """Run one annealed Gibbs-sampling pass (one "SA run" of the paper).

        This is the ``R = 1`` view of :meth:`anneal_many`.
        """
        if initial is not None:
            initial = np.asarray(initial, dtype=float)[None]
        return self.anneal_many(
            beta_schedule, 1, initial=initial, record_energy=record_energy
        ).per_run(0)

    def _anneal_serial(
        self, betas: np.ndarray, spins: np.ndarray, record_energy: bool
    ) -> AnnealResult:
        """Sequential Gibbs reference kernel (bit-exact legacy path)."""
        n = self.num_spins
        coupling = self._coupling
        spins = np.asarray(spins, dtype=float).copy()

        inputs = coupling @ spins + self._fields
        energy = ising_energy(self.model, spins)
        best_energy = energy
        best_sample = spins.copy()
        trace = np.empty(betas.size) if record_energy else None

        rng = self._rng
        tanh = math.tanh
        for sweep, beta in enumerate(betas):
            noise = rng.uniform(-1.0, 1.0, size=n)
            for i in range(n):
                activation = tanh(beta * inputs[i]) + noise[i]
                new_spin = 1.0 if activation >= 0.0 else -1.0
                old_spin = spins[i]
                if new_spin != old_spin:
                    energy += 2.0 * old_spin * inputs[i]
                    spins[i] = new_spin
                    inputs += coupling[i] * (new_spin - old_spin)
            if energy < best_energy:
                best_energy = energy
                best_sample = spins.copy()
            if record_energy:
                trace[sweep] = energy
        return AnnealResult(
            last_sample=spins,
            last_energy=energy,
            best_sample=best_sample,
            best_energy=best_energy,
            num_sweeps=betas.size,
            energy_trace=trace,
        )

    def sample_boltzmann(self, beta: float, num_sweeps: int, burn_in: int = 0,
                         initial=None) -> np.ndarray:
        """Collect one sample per sweep at fixed ``beta`` (for tests).

        Returns an array of shape ``(num_sweeps, n)``.  With enough sweeps
        the empirical distribution converges to eq. (11); the test suite uses
        this on tiny models to validate the sampler against the exact
        Boltzmann weights.  ``burn_in`` sweeps (an integer >= 0) run
        first and are discarded; ``initial`` is an ``(n,)`` start of
        ``-1`` / ``+1`` spins, random if omitted.
        """
        if num_sweeps <= 0:
            raise ValueError(f"num_sweeps must be positive, got {num_sweeps}")
        check_integer(burn_in, "burn_in", 0)
        schedule = np.full(burn_in + num_sweeps, float(beta))
        n = self.num_spins
        coupling = self._coupling
        if initial is None:
            spins = self.random_state()
        else:
            spins = check_start(1, n, [initial])[0]
        inputs = coupling @ spins + self._fields
        samples = np.empty((num_sweeps, n))
        rng = self._rng
        tanh = math.tanh
        for sweep, beta_t in enumerate(schedule):
            noise = rng.uniform(-1.0, 1.0, size=n)
            for i in range(n):
                activation = tanh(beta_t * inputs[i]) + noise[i]
                new_spin = 1.0 if activation >= 0.0 else -1.0
                old_spin = spins[i]
                if new_spin != old_spin:
                    spins[i] = new_spin
                    inputs += coupling[i] * (new_spin - old_spin)
            if sweep >= burn_in:
                samples[sweep - burn_in] = spins
        return samples
