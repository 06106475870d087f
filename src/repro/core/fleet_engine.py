"""Per-instance SAIM outer loops over one fleet anneal per iteration.

:class:`FleetEngine` is :class:`repro.core.engine.SaimEngine` vectorized
across problems: one :class:`repro.core.engine.SaimRun` per instance holds
that instance's Lagrangian, multipliers, penalty, feasible records and
convergence state.  Every outer iteration programs each active run's
fields into the shared :class:`repro.ising.fleet.FleetMachine` and makes
ONE ``anneal_fleet`` call for the whole fleet, which anneals every active
instance with the standalone p-bit kernel on its own stream; each run then
reads its own result out and steps its multipliers with the same code the
single-instance engine runs.  Instances that hit their ``target_cost`` /
``patience`` early exit are *masked out of the active set* — later
iterations draw no noise and run no sweeps for them, so late stragglers
don't pay for finished work.

Equivalence contract
--------------------
``FleetEngine(config, ...).solve_fleet(problems, rng=seed)`` returns, per
instance ``b``, *exactly* the :class:`~repro.core.saim.SaimResult` that
``SaimEngine(config, ...).solve(problems[b], rng=spawn_rngs(seed, B)[b])``
returns on the default p-bit backend — best cost, lambda trajectory, trace
and iteration count included.  That holds because the fleet anneals each
instance with the same function as the standalone machine, on the same
spawned stream (see :mod:`repro.ising.fleet`), and both engines run the
same :class:`~repro.core.engine.SaimRun` between anneals.
``tests/core/test_fleet_engine.py`` pins it; ``solve_many(strategy=...)``
relies on it to make the fused and process strategies interchangeable.

The fleet path supports the engine's ``restart="random"`` mode (the
paper's) only: warm restarts would need per-instance resident spins across
a changing active set, which the fleet engine does not model.
"""

from __future__ import annotations

from repro.core.encoding import encode_with_slacks
from repro.core.engine import SaimRun, check_loop_knobs
from repro.core.saim import SaimConfig
from repro.ising.fleet import FleetMachine
from repro.utils.rng import spawn_rngs

__all__ = ["FleetEngine"]


class FleetEngine:
    """Algorithm 1 over ``B`` problems, one fleet anneal per iteration.

    Parameters mirror :class:`~repro.core.engine.SaimEngine` where they
    apply; the backend is the p-bit fleet machine (there is no
    ``machine_factory`` — other backends go through ``solve_many``'s
    process strategy instead).
    """

    def __init__(self, config: SaimConfig | None = None, num_replicas: int = 1,
                 aggregate: str = "best", restart: str = "random"):
        check_loop_knobs(num_replicas, aggregate, restart)
        if restart != "random":
            raise ValueError(
                "the fused fleet path supports restart='random' only "
                f"(got {restart!r}); use solve_many(strategy='process') "
                "for warm restarts"
            )
        self.config = config if config is not None else SaimConfig()
        self.num_replicas = num_replicas
        self.aggregate = aggregate

    def solve_fleet(self, problems, rng=None, initial_lambdas=None):
        """Solve every problem; returns one ``SaimResult`` per instance.

        Parameters
        ----------
        problems:
            Sequence of :class:`~repro.core.problem.ConstrainedProblem`
            (inequalities are slack-encoded per instance, as in the
            single-instance engine).
        rng:
            Seed-like spawned into one child stream per instance
            (:func:`~repro.utils.rng.spawn_rngs`), or an explicit sequence
            of ``B`` generators — the same per-instance streams
            ``runtime.fleet_jobs`` assigns to process-strategy jobs.
        initial_lambdas:
            ``None`` (the paper's zero start) or a sequence of ``B``
            entries, each ``None`` or a warm-start multiplier vector.
        """
        problems = list(problems)
        if not problems:
            return []
        config = self.config
        replicas = self.num_replicas
        if isinstance(rng, (list, tuple)):
            rngs = list(rng)
            if len(rngs) != len(problems):
                raise ValueError(
                    f"need one rng per instance: got {len(rngs)} "
                    f"for {len(problems)} problems"
                )
        else:
            rngs = spawn_rngs(rng, len(problems))
        if initial_lambdas is None:
            initial_lambdas = [None] * len(problems)
        else:
            initial_lambdas = list(initial_lambdas)
            if len(initial_lambdas) != len(problems):
                raise ValueError(
                    f"need one initial_lambdas entry per instance: got "
                    f"{len(initial_lambdas)} for {len(problems)} problems"
                )

        runs = []
        for b, (problem, start) in enumerate(zip(problems, initial_lambdas)):
            try:
                runs.append(SaimRun(
                    encode_with_slacks(problem), config, replicas,
                    self.aggregate, start, FleetMachine,
                ))
            except ValueError as error:
                raise ValueError(f"instance {b}: {error}") from error

        machine = FleetMachine(
            [run.lagrangian.base_ising for run in runs],
            rng=rngs, dtype=config.dtype,
        )
        schedule = runs[0].schedule  # one config, one schedule
        active = list(range(len(runs)))
        for k in range(config.num_iterations):
            if not active:
                break
            for b in active:
                machine.set_fields(b, *runs[b].program(k))
            fleet_result = machine.anneal_fleet(
                schedule, replicas, active=active,
                track_best=config.read_best,
            )
            active = [
                b for b in active
                if runs[b].advance(fleet_result.instance(b), k)
            ]
        return [run.result() for run in runs]
