"""Per-layer timing for the traced run, taken from outside the package.

The traced run reaches each layer through public seams only, so the
program under test is the same code the untraced run executes:

- ``TRACED_BACKEND`` is a registered backend whose factory wraps the real
  ``pbit`` factory.  It times the factory call plus the ``AnnealProgram``
  build (``ising.build``), every ``set_fields`` (``ising.set_fields``) and
  every ``anneal_many`` (``ising.anneal``), and keeps each returned batch
  for the read-out replay.  The machine itself is untouched, so a traced
  solve returns exactly what an untraced one does.
- The fused fleet has no factory seam: :func:`fleet_wrappers` wraps the
  public ``FleetMachine.anneal_fleet`` / ``set_fields`` on the class for
  the traced phase only.
- The layers between kernel calls are timed by replaying their public
  functions on the solve's own inputs and recorded outputs
  (:func:`replay_build`, :func:`replay_reprogram`, :func:`replay_readout`).
  The read-out replay repeats the engine's per-iteration read-out statement
  for statement; it is a measuring copy, not a second implementation.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

import repro
from repro.core.encoding import encode_with_slacks, normalize_problem
from repro.core.lagrangian import LagrangianIsing
from repro.core.penalty import density_heuristic_penalty
from repro.ising.fleet import FleetMachine

TRACED_BACKEND = "perfbench-pbit"

_clock = time.perf_counter


class Tracer:
    """In-memory span store; ``op`` tags spans with the running operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self.batches: dict = {}
        self.op = None

    def record(self, name, start, end, **attrs):
        self.spans.append(dict(name=name, op=self.op, start=start, end=end,
                               **attrs))

    def keep(self, result, active=None):
        self.batches.setdefault(self.op, []).append((result, active))

    def of(self, op, name) -> list[dict]:
        return [s for s in self.spans if s["op"] == op and s["name"] == name]

    def total(self, op, name) -> float:
        return sum(s["end"] - s["start"] for s in self.of(op, name))


class _TimedMachine:
    """A p-bit machine whose protocol calls are timed into a tracer."""

    def __init__(self, machine, tracer: Tracer):
        self._machine = machine
        self._tracer = tracer

    @property
    def num_spins(self) -> int:
        return self._machine.num_spins

    def set_fields(self, fields, offset=None):
        start = _clock()
        self._machine.set_fields(fields, offset)
        self._tracer.record("ising.set_fields", start, _clock())

    def anneal_many(self, beta_schedule, num_replicas, initial=None):
        start = _clock()
        result = self._machine.anneal_many(beta_schedule, num_replicas,
                                           initial=initial)
        end = _clock()
        steps = self._machine.num_spins * len(beta_schedule) * num_replicas
        self._tracer.record("ising.anneal", start, end, spin_steps=steps)
        self._tracer.keep(result)
        return result


def install_traced_backend(tracer: Tracer) -> str:
    """Register ``TRACED_BACKEND`` timing into ``tracer``; returns its name."""

    def builder(**options):
        real = repro.make_backend_factory("pbit", **options)

        def factory(model, rng=None, dtype=None):
            start = _clock()
            machine = real(model, rng=rng, dtype=dtype)
            machine.program  # the lazy AnnealProgram build belongs to the build
            tracer.record("ising.build", start, _clock())
            return _TimedMachine(machine, tracer)

        return factory

    repro.register_backend(TRACED_BACKEND, builder,
                           description="pbit with timed protocol calls")
    return TRACED_BACKEND


@contextlib.contextmanager
def fleet_wrappers(tracer: Tracer):
    """Time ``FleetMachine.anneal_fleet`` and ``set_fields`` while active."""
    anneal_fleet = FleetMachine.anneal_fleet
    set_fields = FleetMachine.set_fields

    def timed_anneal(self, beta_schedule, num_replicas=1, active=None,
                     **kwargs):
        start = _clock()
        result = anneal_fleet(self, beta_schedule, num_replicas,
                              active=active, **kwargs)
        end = _clock()
        indices = list(range(self.num_instances)) if active is None else list(active)
        sizes = self.instance_sizes
        steps = sum(sizes[b] for b in indices) * len(beta_schedule) * num_replicas
        tracer.record("ising.anneal", start, end, spin_steps=steps)
        tracer.keep(result, indices)
        return result

    def timed_set_fields(self, index, fields, offset=None):
        start = _clock()
        set_fields(self, index, fields, offset)
        tracer.record("ising.set_fields", start, _clock())

    FleetMachine.anneal_fleet = timed_anneal
    FleetMachine.set_fields = timed_set_fields
    try:
        yield
    finally:
        FleetMachine.anneal_fleet = anneal_fleet
        FleetMachine.set_fields = set_fields


def _timed(fn, *args, **kwargs):
    start = _clock()
    value = fn(*args, **kwargs)
    return value, _clock() - start


def replay_build(problem, config):
    """Replay encode/normalize and the Lagrangian build; returns the pieces
    plus ``(encode_s, lagrangian_s)``."""
    start = _clock()
    encoded = encode_with_slacks(problem)
    normalized, _ = normalize_problem(encoded.problem)
    mid = _clock()
    if config.penalty is not None:
        penalty = float(config.penalty)
    else:
        penalty = density_heuristic_penalty(normalized, alpha=config.alpha)
    lagrangian = LagrangianIsing(normalized, penalty)
    end = _clock()
    return encoded, lagrangian, mid - start, end - mid


def replay_reprogram(lagrangian, lambdas_trace) -> float:
    """Seconds ``program_for`` takes over a solve's multiplier trajectory."""
    buf = np.empty(lagrangian.num_spins)
    start = _clock()
    for lambdas in lambdas_trace:
        lagrangian.program_for(lambdas, out=buf)
    return _clock() - start


def replay_readout(encoded, lagrangian, batches, read_best: bool):
    """Replay the engine's per-iteration read-out on recorded batches.

    A batch may be given as a zero-argument callable (the fleet's
    per-instance view, whose extraction is part of its read-out).
    Returns ``(seconds, feasible_readouts, readouts)``.
    """
    source = encoded.source
    feasible_count = 0
    readouts = 0
    start = _clock()
    for item in batches:
        batch = item() if callable(item) else item
        if read_best:
            samples, energies = batch.best_samples, batch.best_energies
        else:
            samples, energies = batch.last_samples, batch.last_energies
        replicas = len(energies)
        xs_ext = ((np.asarray(samples) + 1) / 2).astype(np.int8)
        restricted = [encoded.restrict(xs_ext[r]) for r in range(replicas)]
        feasible = [source.is_feasible(x) for x in restricted]
        for r in range(replicas):
            if feasible[r]:
                source.objective(restricted[r])
        lead = int(np.argmin(energies)) if replicas > 1 else 0
        source.objective(restricted[lead])
        lagrangian.residuals(xs_ext[lead])
        feasible_count += sum(feasible)
        readouts += replicas
    return _clock() - start, feasible_count, readouts


def gaps_between_kernels(tracer: Tracer, op, op_end: float) -> float:
    """Loop time outside the kernel and outside ``set_fields``.

    Summed from each kernel return to the next kernel call (the last one
    to the op end), minus the ``set_fields`` spans inside: what is left
    holds the read-out, the multiplier step, ``program_for`` and the
    engine glue.
    """
    anneals = sorted(tracer.of(op, "ising.anneal"), key=lambda s: s["start"])
    fields = tracer.of(op, "ising.set_fields")
    total = 0.0
    for span, after in zip(anneals, anneals[1:] + [None]):
        until = after["start"] if after is not None else op_end
        inside = sum(s["end"] - s["start"] for s in fields
                     if span["end"] <= s["start"] < until)
        total += until - span["end"] - inside
    return total


def solve_layers(tracer, op, op_wall, op_end, parts, read_best):
    """Per-layer seconds of one traced solve (or fused batch).

    ``parts`` is a list of ``(encoded, lagrangian, encode_s, lagrangian_s,
    lambdas_trace, batches)`` — one entry per solved instance.
    """
    encode_s = sum(p[2] for p in parts)
    build_lag_s = sum(p[3] for p in parts)
    program_for_s = sum(replay_reprogram(p[1], p[4]) for p in parts)
    readout_s = 0.0
    feasible = readouts = 0
    for encoded, lagrangian, _, _, _, batches in parts:
        seconds, ok, total = replay_readout(encoded, lagrangian, batches,
                                            read_best)
        readout_s += seconds
        feasible += ok
        readouts += total
    anneal_s = tracer.total(op, "ising.anneal")
    set_fields_s = tracer.total(op, "ising.set_fields")
    layers = {
        "encode": encode_s,
        "lagrangian_build": build_lag_s,
        "ising_build": tracer.total(op, "ising.build"),
        "reprogram": program_for_s + set_fields_s,
        "anneal": anneal_s,
        "readout": readout_s,
    }
    layers["other"] = (gaps_between_kernels(tracer, op, op_end)
                       - readout_s - program_for_s)
    layers["unattributed"] = op_wall - sum(layers.values())
    counts = {
        "spin_steps": sum(s["spin_steps"] for s in tracer.of(op, "ising.anneal")),
        "feasible_readouts": feasible,
        "readouts": readouts,
    }
    return layers, counts
