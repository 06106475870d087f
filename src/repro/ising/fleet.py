"""Multi-instance p-bit annealing — one call per fleet iteration.

``solve_many`` parallelises across *processes*; on a one-core container
that honestly measures ~1x.  :class:`FleetMachine` is the in-process
alternative the fused executor strategy drives: ``B`` independent Ising
models, each with its own :class:`~repro.ising._lockstep.AnnealProgram`
(built once per fleet, reprogrammed per instance through
:meth:`FleetMachine.set_fields`) and its own noise stream, advanced by one
:meth:`FleetMachine.anneal_fleet` call per SAIM iteration.

Per-instance loop
-----------------
``anneal_fleet`` runs :func:`repro.ising.pbit.pbit_anneal` — the function
a standalone :class:`~repro.ising.pbit.PBitMachine` runs — once per active
instance, on that instance's program, fields and stream.  There instance
``b`` draws its ``(R, n_b)`` initial spins and then its noise from
``spawn_rngs(seed, B)[b]`` exactly as a standalone machine on that stream
does (in C from the stream's bit generator when the compiled sweep
loaded, through numpy otherwise), so every instance's samples, energies
and traces are *bit-identical* to a standalone run, whatever the active
set, and on either kernel.  Inactive instances draw no noise and
cost nothing, which is how the fleet engine drops finished instances.

The contract is pinned by ``tests/ising/test_fleet.py`` (kernel level) and
``tests/core/test_fleet_engine.py`` (SAIM level); it is what makes
``solve_many(strategy="fused")`` interchangeable with the process pool.
"""

from __future__ import annotations

import numpy as np

from repro.ising._lockstep import AnnealProgram
from repro.ising.backend import (
    BatchAnnealResult,
    check_replicas,
    resolve_dtype,
)
from repro.ising.model import IsingModel
from repro.ising.pbit import pbit_anneal
from repro.utils.rng import spawn_rngs

__all__ = ["FleetProgram", "FleetMachine", "FleetAnnealResult"]


class FleetProgram:
    """Once-per-fleet preparation of ``B`` couplings.

    Holds one :class:`AnnealProgram` per instance plus the per-instance
    linear fields (rows of a ``(B, max n_b)`` buffer, zero past each
    instance's own ``n_b``) and offsets.  Like the single-instance
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
        self.fields = np.zeros(
            (self.num_instances, int(self.sizes.max())), dtype=self.dtype
        )
        self.offsets = np.zeros(self.num_instances)

    def set_fields(self, index: int, fields, offset: float | None = None) -> None:
        """Reprogram instance ``index``'s linear fields (and offset).

        Copies into the fields buffer — the caller keeps ownership of
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
    """Outcome of one fleet anneal: one result per annealed instance.

    :meth:`instance` serves instance ``b``'s
    :class:`~repro.ising.backend.BatchAnnealResult`, shaped exactly like a
    standalone machine's.  ``indices`` are the fleet indices that were
    annealed (the active subset when the engine has masked finished
    instances out).
    """

    def __init__(self, results: dict):
        self._results = results
        self.indices = list(results)

    def instance(self, index: int) -> BatchAnnealResult:
        """Instance ``index``'s result in standalone machine shape."""
        try:
            return self._results[index]
        except KeyError:
            raise KeyError(
                f"instance {index} was not annealed in this call "
                f"(active: {self.indices})"
            ) from None


class FleetMachine:
    """``B`` independent p-bit machines advanced by one call.

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

    #: The registered backend each fleet instance runs; the engine's
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
        """Coefficient storage precision of every instance."""
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
        """One annealing shot of ``R`` replicas per active instance.

        ``active`` selects a subset of fleet indices (default: all); masked
        instances draw no noise and cost nothing — this is how the fleet
        engine drops finished instances.  Every active instance runs
        :func:`~repro.ising.pbit.pbit_anneal` on its own program and
        stream, so its chain is bit-identical to a standalone
        ``PBitMachine`` run on that stream, whatever the active set.

        ``track_best=False`` skips the per-sweep energy accounting that
        only feeds ``best_*`` (and traces): the chain itself is untouched,
        and the last energies are exactly the values the tracked path
        reports for the last sweep.  SAIM's default read-out consumes only
        the last sample, so the fleet engine runs this mode whenever
        ``read_best`` is off; the returned ``best_*`` then alias the
        ``last_*`` values.
        """
        betas = np.asarray(beta_schedule, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("beta_schedule must be a non-empty 1-D sequence")
        check_replicas(num_replicas)
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
        program = self.program
        results = {}
        for b in indices:
            n = int(program.sizes[b])
            # pbit_anneal draws the (R, n) start from the stream, as for
            # PBitMachine.anneal_many(initial=None).
            results[b] = pbit_anneal(
                program.programs[b], program.fields[b, :n],
                program.offsets[b], betas, num_replicas, self._rngs[b],
                record_energy=record_energy, track_best=track_best,
            )
        return FleetAnnealResult(results)
