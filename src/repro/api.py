"""The front-door API: ``repro.solve(problem, method=..., backend=...)``.

One registry-backed entry point binds the three layers of the stack
together: a *method* (the outer solver loop), a *backend* (the annealing
machine implementing the :class:`repro.ising.backend.AnnealingBackend`
protocol), and a :class:`repro.core.saim.SaimConfig` describing budgets and
hyper-parameters.  The CLI, the experiment harness, the sharded executor,
and the benchmark drivers all route through here, so a new machine or
solver variant becomes available everywhere by a single
``register_backend`` / ``register_method`` call.

**Every method returns the same schema** — a
:class:`repro.core.report.SolveReport` with the canonical fields
(``best_x``, ``best_cost``, ``feasible``, ``num_iterations``,
``wall_seconds``, ``method``, ``backend``) plus the solver's native result
as the typed ``detail`` payload.  That includes the paper's classical
baselines: ``greedy``, ``ga`` (Chu–Beasley), ``milp`` (HiGHS), ``bnb``
(LP-bounded branch & bound) and ``exhaustive`` are registered methods, so
the comparison columns of Tables II and V flow through the same pipe as
SAIM itself.

Methods split into two families:

- *annealing methods* (``saim``, ``penalty``) take a backend, a
  :class:`~repro.core.saim.SaimConfig`, replicas, and seeds;
- *backend-free methods* (the classical baselines) take only
  ``method_options`` (and ``rng`` where stochastic) and **reject** backend
  knobs — passing ``backend=``, ``backend_options=``, ``num_replicas>1``
  or SAIM config fields to ``greedy`` raises instead of being silently
  ignored.

Usage::

    import repro

    instance = repro.generate_qkp(num_items=40, density=0.5, rng=1)
    report = repro.solve(instance, num_iterations=100, mcs_per_run=300, rng=7)

    # replica-parallel on a quantized machine
    report = repro.solve(
        instance, backend="quantized", num_replicas=8,
        backend_options={"bits": 10}, num_iterations=40, rng=7,
    )

    # the big-R fast path: float32 coefficient storage + scan
    report = repro.solve(
        instance, num_replicas=128,
        backend_options={"dtype": "float32"}, num_iterations=40, rng=7,
    )

    # the same schema from a classical baseline
    report = repro.solve(instance, method="greedy")
    print(report.best_cost, report.detail.best_profit)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

from repro.core.report import SolveReport, coerce_report
from repro.core.saim import SaimConfig


@dataclass(frozen=True)
class MethodSpec:
    """Registry entry for one solver method.

    ``uses_backend`` / ``uses_config`` / ``uses_lambdas`` declare which
    front-door knobs the method consumes; the front door rejects the others
    up front so no knob is ever silently ignored.
    """

    name: str
    runner: object
    description: str = ""
    uses_backend: bool = True
    uses_config: bool = True
    uses_lambdas: bool = False


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry for one annealing backend."""

    name: str
    builder: object
    description: str = ""


_METHODS: dict[str, MethodSpec] = {}
_BACKENDS: dict[str, BackendSpec] = {}

#: The machine an annealing method runs on when the caller names none.
DEFAULT_BACKEND = "pbit"


def register_method(
    name: str,
    runner,
    *,
    description: str = "",
    uses_backend: bool = True,
    uses_config: bool = True,
    uses_lambdas: bool = False,
) -> None:
    """Register a solver method.

    ``runner(problem, instance=..., config=..., backend=...,
    num_replicas=..., aggregate=..., restart=..., rng=...,
    initial_lambdas=..., backend_options=..., method_options=...)``
    returns either a
    :class:`~repro.core.report.SolveReport` or a native result object
    (coerced into the schema by the front door).  ``problem`` is the
    :class:`~repro.core.problem.ConstrainedProblem` form; ``instance`` is
    the original argument (the typed QKP/MKP instance when one was passed),
    which is what the classical baselines consume.  ``backend`` is the
    registry name and ``backend_options`` the raw builder options: the
    method decides what the machine knobs mean
    (``make_backend_factory(backend, **backend_options)`` resolves them
    into a machine factory) and raises on knobs it does not support.
    """
    _METHODS[name] = MethodSpec(
        name=name,
        runner=runner,
        description=description,
        uses_backend=uses_backend,
        uses_config=uses_config,
        uses_lambdas=uses_lambdas,
    )


def register_backend(name: str, builder, *, description: str = "") -> None:
    """Register an annealing backend.

    ``builder(**backend_options)`` must return a machine factory
    ``factory(model, rng) -> AnnealingBackend``.
    """
    _BACKENDS[name] = BackendSpec(
        name=name, builder=builder, description=description
    )


def available_methods() -> list[str]:
    """Registered method names."""
    return sorted(_METHODS)


def available_backends() -> list[str]:
    """Registered backend names."""
    return sorted(_BACKENDS)


def method_info(name: str) -> MethodSpec:
    """The :class:`MethodSpec` registered under ``name``."""
    try:
        return _METHODS[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; available: {available_methods()}"
        ) from None


def backend_info(name: str) -> BackendSpec:
    """The :class:`BackendSpec` registered under ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def describe_methods() -> dict[str, str]:
    """``{method name: one-line description}`` of the registry."""
    return {name: _METHODS[name].description for name in available_methods()}


def describe_backends() -> dict[str, str]:
    """``{backend name: one-line description}`` of the registry."""
    return {name: _BACKENDS[name].description for name in available_backends()}


def make_backend_factory(backend: str = "pbit", **backend_options):
    """Resolve a backend name (+ options) into a machine factory."""
    factory = backend_info(backend).builder(**backend_options)
    # Engine error messages name the backend rather than printing the
    # factory closure's repr.
    factory.backend_name = backend
    return factory


def _build_config(config, overrides) -> SaimConfig:
    valid = {f.name for f in fields(SaimConfig)}
    unknown = set(overrides) - valid
    if isinstance(config, dict):
        unknown |= set(config) - valid
    if unknown:
        raise ValueError(
            f"unknown SaimConfig field(s) {sorted(unknown)}; "
            f"valid fields: {sorted(valid)}"
        )
    if config is None:
        return SaimConfig(**overrides) if overrides else SaimConfig()
    if isinstance(config, dict):
        merged = dict(config)
        merged.update(overrides)
        return SaimConfig(**merged)
    if isinstance(config, SaimConfig):
        return replace(config, **overrides) if overrides else config
    raise TypeError(
        f"config must be a SaimConfig, a dict, or None, got {type(config).__name__}"
    )


def _reject_backend_knobs(method, backend, num_replicas, aggregate,
                          backend_options, initial_lambdas, uses_lambdas,
                          restart):
    """Backend-free methods refuse annealing knobs instead of ignoring them."""
    if backend is not None:
        raise ValueError(
            f"method {method!r} is backend-free; it accepts no backend "
            f"(got {backend!r})"
        )
    if restart != "random":
        raise ValueError(
            f"method {method!r} is backend-free; it has no annealing "
            f"restarts (got restart={restart!r})"
        )
    if backend_options:
        raise ValueError(
            f"method {method!r} is backend-free; it accepts no "
            f"backend_options (got {sorted(backend_options)})"
        )
    if num_replicas != 1:
        raise ValueError(
            f"method {method!r} is backend-free; it has no replica loop "
            f"(got num_replicas={num_replicas})"
        )
    if aggregate != "best":
        raise ValueError(
            f"method {method!r} is backend-free; it has no replica "
            f"aggregate (got {aggregate!r})"
        )
    if initial_lambdas is not None and not uses_lambdas:
        raise ValueError(
            f"method {method!r} has no Lagrange multipliers to warm-start"
        )


def solve(
    problem,
    method: str = "saim",
    backend: str | None = None,
    *,
    config=None,
    num_replicas: int = 1,
    aggregate: str = "best",
    restart: str = "random",
    rng=None,
    initial_lambdas=None,
    backend_options: dict | None = None,
    method_options: dict | None = None,
    **config_overrides,
) -> SolveReport:
    """Solve a constrained problem through the registry.

    Parameters
    ----------
    problem:
        A :class:`repro.core.problem.ConstrainedProblem`, or any instance
        object exposing ``to_problem()`` (QKP/MKP/knapsack/max-cut
        instances).  The classical baseline methods need the typed
        instance — they raise on a bare ``ConstrainedProblem``.
    method:
        Registered solver loop; ``available_methods()`` lists them.  Ships
        with ``"saim"`` (Algorithm 1 via the unified engine), ``"penalty"``
        (fixed-penalty baseline) and the classical baselines ``"greedy"``,
        ``"ga"``, ``"milp"``, ``"bnb"`` and ``"exhaustive"``.
    backend:
        Registered annealing machine for annealing methods (``"pbit"``,
        ``"metropolis"``, ``"quantized"``, ``"chromatic"``, ``"pt"``,
        ``"higher_order"``); ``None`` selects ``"pbit"``.
        Backend-free methods reject an explicit backend.
    config:
        A :class:`~repro.core.saim.SaimConfig`, a dict of its fields, or
        ``None``; keyword overrides (``num_iterations=...`` etc.) are
        merged on top.  Only annealing methods take a config — baselines
        are parameterized through ``method_options``.
    num_replicas / aggregate:
        Replica-parallel settings of the engine loop (``1`` is the paper's
        serial algorithm).
    restart:
        Annealing-replica restart policy per SAIM iteration: ``"random"``
        (the paper — fresh uniform spins every run) or ``"warm"`` (each
        run resumes the previous iteration's final spins; the lock-step
        machines then skip the start-of-run ``O(N^2 R)`` input matmul).
        Annealing methods only; rejected on the ``"pt"`` backend, which
        owns its replica initialization.
    rng:
        Seed or generator (stochastic methods).
    initial_lambdas:
        Warm-started multipliers (methods that support them).
    backend_options:
        Extra keyword arguments for the backend builder (e.g.
        ``{"bits": 8}`` for ``"quantized"``).
    method_options:
        Method-specific options, e.g. ``{"num_children": 5000}`` for
        ``"ga"`` or ``{"time_limit": 10.0}`` for ``"milp"``.

    Returns a :class:`repro.core.report.SolveReport` whose ``detail`` is
    the method's native result object.
    """
    spec = method_info(method)
    instance = problem
    if hasattr(problem, "to_problem"):
        problem = problem.to_problem()

    if spec.uses_backend:
        backend_name = backend if backend is not None else DEFAULT_BACKEND
        backend_info(backend_name)  # raises with the available list
    else:
        _reject_backend_knobs(
            method, backend, num_replicas, aggregate, backend_options,
            initial_lambdas, spec.uses_lambdas, restart,
        )
        backend_name = None

    if spec.uses_config:
        resolved = _build_config(config, config_overrides)
    else:
        if config is not None or config_overrides:
            given = sorted(config_overrides) if config_overrides else "config"
            raise ValueError(
                f"method {method!r} takes no SaimConfig (got {given}); "
                f"use method_options for its settings"
            )
        resolved = None

    start = time.perf_counter()
    raw = spec.runner(
        problem,
        instance=instance,
        config=resolved,
        backend=backend_name,
        num_replicas=num_replicas,
        aggregate=aggregate,
        restart=restart,
        rng=rng,
        initial_lambdas=initial_lambdas,
        backend_options=backend_options,
        method_options=dict(method_options or {}),
    )
    wall = time.perf_counter() - start

    name = getattr(instance, "name", "") or getattr(problem, "name", "")
    report = coerce_report(
        raw, method=method, backend=backend_name, problem_name=name
    )
    report.wall_seconds = wall
    if not report.problem_name:
        report.problem_name = name
    return report


def solve_fleet(
    problems,
    backend: str | None = None,
    *,
    config=None,
    num_replicas: int = 1,
    aggregate: str = "best",
    restart: str = "random",
    rng=None,
    initial_lambdas=None,
    backend_options: dict | None = None,
    **config_overrides,
) -> list[SolveReport]:
    """Solve ``B`` problems with ONE fleet anneal call per SAIM iteration;
    returns one :class:`~repro.core.report.SolveReport` each.

    The fleet (:mod:`repro.ising.fleet`) anneals every active instance
    with the p-bit kernel on its own stream — the single-process
    alternative to ``solve_many``'s process pool.  Per instance, the
    result is **exactly**
    what ``repro.solve(problems[b], rng=spawn_rngs(rng, B)[b])`` returns:
    the per-instance chains are bit-identical to standalone machines on the
    same spawned streams.

    Parameters mirror :func:`solve` where they apply.  The fleet runs the
    p-bit machine's kernel, so ``backend`` must be ``None`` or ``"pbit"`` (run
    other backends through ``solve_many(strategy="process")``);
    ``backend_options`` accepts the ``dtype`` knob only, and ``restart``
    must be ``"random"`` (the paper's).  ``rng`` may be a seed-like (one
    child stream is spawned per instance) or an explicit list of ``B``
    generators; ``initial_lambdas`` is ``None`` or one entry per instance.
    ``wall_seconds`` on each report is the fleet wall time divided evenly
    across instances (the fused call is indivisible).
    """
    from repro.core.fleet_engine import FleetEngine

    problems = list(problems)
    if backend is not None and backend != "pbit":
        backend_info(backend)  # unknown names fail with the available list
        raise ValueError(
            f"solve_fleet runs the fused p-bit kernel; backend must be "
            f"None or 'pbit', got {backend!r} (use "
            f"solve_many(strategy='process') for other backends)"
        )
    options = dict(backend_options or {})
    option_dtype = options.pop("dtype", None)
    if options:
        raise ValueError(
            f"solve_fleet backend_options accepts 'dtype' only, got "
            f"{sorted(options)}"
        )
    resolved = _build_config(config, config_overrides)
    _check_dtype_spellings(resolved, option_dtype)
    if option_dtype is not None and resolved.dtype is None:
        resolved = replace(resolved, dtype=option_dtype)

    instances = list(problems)
    problems = [
        p.to_problem() if hasattr(p, "to_problem") else p for p in problems
    ]
    engine = FleetEngine(
        resolved, num_replicas=num_replicas, aggregate=aggregate,
        restart=restart,
    )
    start = time.perf_counter()
    results = engine.solve_fleet(
        problems, rng=rng, initial_lambdas=initial_lambdas
    )
    wall = time.perf_counter() - start
    share = wall / len(results) if results else 0.0

    reports = []
    for instance, problem, result in zip(instances, problems, results):
        report = _saim_report(result, "pbit")
        report.problem_name = (
            getattr(instance, "name", "") or getattr(problem, "name", "")
        )
        report.wall_seconds = share
        reports.append(report)
    return reports


# --------------------------------------------------------------------------
# Default backend builders.
#
# Every registered factory has the uniform signature
# ``factory(model, rng=None, dtype=None)``: ``dtype`` is the machine's
# coefficient storage / scan precision ("float64" / "float32"), settable
# either at build time (``backend_options={"dtype": "float32"}``) or per
# solve (``SaimConfig(dtype=...)``, which the engine forwards here).  A
# ``dtype`` passed by the engine overrides the builder-time default.

def _resolve_builder_dtype(default: str | None):
    from repro.ising.backend import resolve_dtype

    resolve_dtype(default)  # validate the builder-time spelling up front
    return default


def _pbit_builder(dtype: str | None = None, kernel: str = "lockstep",
                  program_cache=None):
    from repro.ising.pbit import PBitMachine

    default = _resolve_builder_dtype(dtype)

    def factory(model, rng=None, dtype=None):
        machine = PBitMachine(model, rng=rng, dtype=dtype or default,
                              kernel=kernel)
        if program_cache is not None:
            # Service warm path: bind the machine to a resident
            # AnnealProgram keyed by coupling content (see
            # repro.service.pool.ProgramCache), skipping the O(N^2)
            # program build on repeat instances.
            program_cache.bind(machine)
        return machine

    return factory


def _metropolis_builder(dtype: str | None = None, kernel: str = "serial"):
    from repro.ising.sa import MetropolisMachine

    default = _resolve_builder_dtype(dtype)

    def factory(model, rng=None, dtype=None):
        return MetropolisMachine(model, rng=rng, dtype=dtype or default,
                                 kernel=kernel)

    return factory


def _quantized_builder(bits: int = 8, dtype: str | None = None,
                       kernel: str = "lockstep", program_cache=None):
    from repro.ising.quantization import QuantizedPBitMachine

    default = _resolve_builder_dtype(dtype)

    def factory(model, rng=None, dtype=None):
        machine = QuantizedPBitMachine(
            model, bits=bits, rng=rng, dtype=dtype or default, kernel=kernel
        )
        if program_cache is not None:
            # Keyed by the quantized coupling content, so different bit
            # depths of the same instance cache separate programs.
            program_cache.bind(machine)
        return machine

    return factory


def _chromatic_builder(dtype: str | None = None, storage: str | None = None):
    from repro.ising.sparse import ChromaticPBitMachine

    default = _resolve_builder_dtype(dtype)

    def factory(model, rng=None, dtype=None):
        return ChromaticPBitMachine.from_dense(
            model, rng=rng, dtype=dtype or default, storage=storage
        )

    return factory


def _pt_builder(num_chains: int = 8, beta_min: float = 0.1,
                read_out: str = "cold", dtype: str | None = None):
    # `num_chains` is the number of parallel-tempering chains inside ONE
    # machine, not the engine-level replica batch (`num_replicas`).
    if num_chains < 1:
        raise ValueError(f"num_chains must be >= 1, got {num_chains}")
    from repro.ising.pt_machine import PTMachine

    default = _resolve_builder_dtype(dtype)

    def factory(model, rng=None, dtype=None):
        return PTMachine(
            model, rng=rng, num_replicas=num_chains,
            beta_min=beta_min, read_out=read_out, dtype=dtype or default,
        )

    return factory


def _higher_order_builder(dtype: str | None = None):
    from repro.ising.higher_order import HigherOrderPBitMachine, PolyIsingModel

    default = _resolve_builder_dtype(dtype)

    def factory(model, rng=None, dtype=None):
        if not isinstance(model, PolyIsingModel):
            model = PolyIsingModel.from_quadratic(model)
        return HigherOrderPBitMachine(model, rng=rng, dtype=dtype or default)

    # The engine checks this flag before handing the factory a polynomial
    # Lagrangian; quadratic models still work (lifted above).
    factory.accepts_poly = True
    return factory


# --------------------------------------------------------------------------
# Annealing methods.

def _run_saim(problem, *, config, backend, num_replicas, aggregate, restart,
              rng, initial_lambdas, backend_options, method_options, **_):
    from repro.core.engine import SaimEngine

    if method_options:
        raise ValueError(
            f"the saim method has no method_options (got "
            f"{sorted(method_options)}); its settings live on SaimConfig"
        )
    if restart == "warm" and backend == "pt":
        # PTMachine owns its replica initialization (anneal's `initial` is
        # interface parity only), so a warm restart would be silently
        # ignored — refuse instead.
        raise ValueError(
            "restart='warm' is not supported on the 'pt' backend: parallel "
            "tempering re-initializes its own replica ladder every run"
        )
    options = dict(backend_options or {})
    _check_dtype_spellings(config, options.get("dtype"))
    engine = SaimEngine(
        config,
        num_replicas=num_replicas,
        aggregate=aggregate,
        restart=restart,
        machine_factory=make_backend_factory(backend, **options),
    )
    result = engine.solve(problem, rng=rng, initial_lambdas=initial_lambdas)
    return _saim_report(result, backend)


def _check_dtype_spellings(config, option_dtype) -> None:
    """The precision knob has two front-door spellings —
    ``backend_options={"dtype": ...}`` and ``SaimConfig(dtype=...)``.
    They must agree when both are given explicitly (the config default
    ``None`` defers to the backend options), so a single resolved dtype
    reaches the machine."""
    from repro.ising.backend import resolve_dtype

    if (
        option_dtype is not None
        and config.dtype is not None
        and resolve_dtype(option_dtype) != resolve_dtype(config.dtype)
    ):
        raise ValueError(
            f"conflicting dtypes: SaimConfig(dtype={config.dtype!r}) vs "
            f"backend_options dtype {option_dtype!r}; pass one spelling"
        )


def _saim_report(result, backend) -> SolveReport:
    """The front-door report of one SAIM ``result`` (``solve``/``solve_fleet``)."""
    return SolveReport(
        method="saim",
        backend=backend,
        best_x=result.best_x,
        best_cost=result.best_cost,
        feasible=result.found_feasible,
        num_iterations=result.num_iterations,
        detail=result,
        num_replicas=result.num_replicas,
        total_mcs=result.total_mcs,
    )


def _run_penalty(problem, *, config, backend, num_replicas, aggregate,
                 restart, rng, initial_lambdas, backend_options,
                 method_options, **_):
    # The classical fixed-penalty baseline: one programmed Hamiltonian,
    # num_iterations independent annealing runs, no multiplier loop.  It
    # is hard-wired to p-bit batch annealing, so reject knobs it would
    # otherwise silently ignore.
    del aggregate
    if backend != "pbit":
        raise ValueError(
            f"the penalty method runs on the 'pbit' backend only, "
            f"got {backend!r}"
        )
    if backend_options:
        raise ValueError(
            "the penalty method accepts no backend_options; its p-bit "
            f"machine has no builder knobs (got {sorted(backend_options)})"
        )
    if num_replicas != 1:
        raise ValueError(
            "the penalty method has no replica loop; its num_iterations "
            "already are independent annealing runs"
        )
    if restart != "random":
        raise ValueError(
            "the penalty method always restarts from random spins "
            f"(got restart={restart!r})"
        )
    if initial_lambdas is not None:
        raise ValueError("the penalty method has no Lagrange multipliers")
    if method_options:
        raise ValueError(
            f"the penalty method has no method_options (got "
            f"{sorted(method_options)}); its settings live on SaimConfig"
        )
    if config.dtype not in (None, "float64"):
        raise ValueError(
            "the penalty method runs the float64 reference kernel only "
            f"(got SaimConfig(dtype={config.dtype!r}))"
        )
    from repro.core.encoding import encode_with_slacks, normalize_problem
    from repro.core.penalty import density_heuristic_penalty, penalty_method_solve
    from repro.core.poly import PolyProblem

    if isinstance(problem, PolyProblem):
        raise ValueError(
            "the penalty method runs the quadratic p-bit machine only; "
            "solve polynomial problems with method='saim', "
            "backend='higher_order'"
        )
    encoded = encode_with_slacks(problem)
    if config.penalty is not None:
        penalty = float(config.penalty)
    else:
        normalized, _ = normalize_problem(encoded.problem)
        penalty = density_heuristic_penalty(normalized, alpha=config.alpha)
    result = penalty_method_solve(
        encoded,
        penalty,
        num_runs=config.num_iterations,
        mcs_per_run=config.mcs_per_run,
        beta_max=config.beta_max,
        rng=rng,
        read_best=config.read_best,
    )
    return SolveReport(
        method="penalty",
        backend=backend,
        best_x=result.best_x,
        best_cost=result.best_cost,
        feasible=result.best_x is not None,
        num_iterations=result.num_runs,
        detail=result,
        total_mcs=result.total_mcs,
    )


# --------------------------------------------------------------------------
# Classical baseline methods (backend-free).

def _pop_options(method, options, **defaults):
    """Extract known option keys; raise on leftovers."""
    values = {key: options.pop(key, default) for key, default in defaults.items()}
    if options:
        raise ValueError(
            f"unknown method_options for {method!r}: {sorted(options)}; "
            f"valid options: {sorted(defaults)}"
        )
    return values


def _require_instance(method, instance):
    from repro.problems.mkp import MkpInstance
    from repro.problems.qkp import QkpInstance

    if not isinstance(instance, (QkpInstance, MkpInstance)):
        raise ValueError(
            f"method {method!r} needs a typed QKP or MKP instance, got "
            f"{type(instance).__name__}"
        )
    return instance


def _run_greedy(problem, *, instance, rng, method_options, **_):
    del problem, rng  # deterministic, works on the typed instance
    from repro.baselines.greedy import greedy_solve

    opts = _pop_options("greedy", method_options, improve=True, max_rounds=50)
    result = greedy_solve(
        _require_instance("greedy", instance),
        improve=bool(opts["improve"]), max_rounds=int(opts["max_rounds"]),
    )
    return SolveReport(
        method="greedy",
        backend=None,
        best_x=result.best_x,
        best_cost=-result.best_profit,
        feasible=True,
        num_iterations=1,
        detail=result,
    )


def _run_ga(problem, *, instance, rng, method_options, **_):
    del problem
    from repro.baselines.ga import GaConfig, chu_beasley_ga

    opts = _pop_options(
        "ga", method_options, population_size=100, num_children=20000,
        mutation_bits=2, tournament_size=2,
    )
    result = chu_beasley_ga(
        _require_instance("ga", instance), GaConfig(**opts), rng=rng
    )
    return SolveReport(
        method="ga",
        backend=None,
        best_x=result.best_x,
        best_cost=-result.best_profit,
        feasible=True,
        num_iterations=result.generations,
        detail=result,
    )


def _run_milp(problem, *, instance, method_options, **_):
    del problem
    from repro.baselines.milp import milp_solve

    opts = _pop_options("milp", method_options, time_limit=None)
    try:
        result = milp_solve(
            _require_instance("milp", instance), time_limit=opts["time_limit"]
        )
    except TypeError as error:
        raise ValueError(str(error)) from None
    return SolveReport(
        method="milp",
        backend=None,
        best_x=result.x,
        best_cost=-result.profit,
        feasible=True,
        num_iterations=1,
        detail=result,
    )


def _run_bnb(problem, *, instance, method_options, **_):
    del problem
    from repro.baselines.branch_and_bound import bnb_solve

    opts = _pop_options("bnb", method_options, max_nodes=None)
    result = bnb_solve(
        _require_instance("bnb", instance), max_nodes=opts["max_nodes"]
    )
    return SolveReport(
        method="bnb",
        backend=None,
        best_x=result.x,
        best_cost=-result.profit,
        feasible=True,
        num_iterations=result.nodes_explored,
        detail=result,
    )


def _run_exhaustive(problem, *, instance, method_options, **_):
    from repro.baselines.exact_qkp import exhaustive_solve

    _pop_options("exhaustive", method_options)
    del instance  # the enumeration runs on the ConstrainedProblem form
    result = exhaustive_solve(problem)
    return SolveReport(
        method="exhaustive",
        backend=None,
        best_x=result.best_x,
        best_cost=result.best_cost,
        feasible=result.found_feasible,
        num_iterations=1,
        detail=result,
    )


# --------------------------------------------------------------------------
# Default registrations.

register_backend(
    "pbit", _pbit_builder,
    description="probabilistic-bit machine of paper Section III-B "
                "(backend_options={'dtype': 'float32'} for the fast scan, "
                "{'kernel': 'serial'} for the pure-python R=1 reference, "
                "{'program_cache': ...} for service-resident programs)",
)
register_backend(
    "metropolis", _metropolis_builder,
    description="single-flip Metropolis simulated annealing (dtype knob; "
                "backend_options={'kernel': 'lockstep'} for the fast R=1 "
                "systematic scan)",
)
register_backend(
    "quantized", _quantized_builder,
    description="fixed-point p-bit machine (backend_options={'bits': 8}; "
                "{'program_cache': ...} for service-resident programs)",
)
register_backend(
    "chromatic", _chromatic_builder,
    description="graph-colored sparse p-bit arrays (per-color replica-batched "
                "sweeps; backend_options={'storage': 'dense'|'csr', "
                "'dtype': ...} — storage auto-selected by coupling density "
                "when omitted)",
)
register_backend(
    "pt", _pt_builder,
    description="parallel tempering (backend_options={'num_chains': 8})",
)
register_backend(
    "higher_order", _higher_order_builder,
    description="higher-order (PUBO) p-bit machine over polynomial spin "
                "models; lifts quadratic models automatically "
                "(backend_options={'dtype': 'float32'} for reduced-precision "
                "decisions)",
)
register_method(
    "saim", _run_saim,
    description="self-adaptive Ising machine, Algorithm 1 (any backend)",
    uses_backend=True, uses_config=True, uses_lambdas=True,
)
register_method(
    "penalty", _run_penalty,
    description="classical fixed-penalty annealing baseline (pbit only)",
    uses_backend=True, uses_config=True,
)
register_method(
    "greedy", _run_greedy,
    description="density-ordered greedy construction + local improvement",
    uses_backend=False, uses_config=False,
)
register_method(
    "ga", _run_ga,
    description="Chu-Beasley steady-state genetic algorithm [28]",
    uses_backend=False, uses_config=False,
)
register_method(
    "milp", _run_milp,
    description="exact MKP via scipy HiGHS MILP (paper's intlinprog stand-in)",
    uses_backend=False, uses_config=False,
)
register_method(
    "bnb", _run_bnb,
    description="exact LP-bounded depth-first branch & bound (QKP and MKP)",
    uses_backend=False, uses_config=False,
)
register_method(
    "exhaustive", _run_exhaustive,
    description="exact enumeration of all 2^N assignments (N <= 24)",
    uses_backend=False, uses_config=False,
)
