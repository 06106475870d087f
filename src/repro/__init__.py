"""repro — Self-Adaptive Ising Machines for Constrained Optimization.

A from-scratch Python reproduction of Delacour, "Self-Adaptive Ising
Machines for Constrained Optimization" (DATE 2025, arXiv:2501.04971):
a probabilistic-bit Ising machine whose energy landscape is reshaped
on-line by Lagrange-multiplier updates, evaluated on quadratic and
multidimensional knapsack problems.

Quickstart::

    import repro

    instance = repro.generate_qkp(num_items=40, density=0.5, rng=1)
    report = repro.solve(instance, num_iterations=100, mcs_per_run=300, rng=7)
    print(report.best_cost, report.feasible, report.detail.feasible_ratio)

``repro.solve`` is the registry-backed front door: ``method`` selects the
solver loop (``"saim"``, ``"penalty"``, or a classical baseline:
``"greedy"``, ``"ga"``, ``"milp"``, ``"bnb"``, ``"exhaustive"``),
``backend`` the annealing machine (``"pbit"``, ``"metropolis"``,
``"quantized"``, ``"chromatic"``, ``"pt"``, ``"higher_order"``), and
``num_replicas`` scales
the batched replica-parallel engine.  Every method returns the same
:class:`repro.core.report.SolveReport` schema, with the solver's native
result as its typed ``detail`` payload.

``repro.solve_many`` shards a batch of :class:`repro.runtime.SolveJob`
declarations across worker processes and streams results back —
``repro.sweep_backends`` builds method × backend comparison tables on
top, and ``repro.SolverSession`` warm-starts resolves of perturbed
instances from cached multipliers.
"""

from repro.api import (
    available_backends,
    available_methods,
    backend_info,
    describe_backends,
    describe_methods,
    make_backend_factory,
    method_info,
    register_backend,
    register_method,
    solve,
    solve_fleet,
)
from repro.runtime import (
    JobOutcome,
    SolveJob,
    SolveJobError,
    SolveManyReport,
    SolveManyStats,
    SolverSession,
    fleet_jobs,
    fused_blockers,
    iter_solve_many,
    solve_many,
)
from repro.core import (
    ConstrainedProblem,
    LinearConstraints,
    SaimConfig,
    SaimResult,
    SolveReport,
    SaimEngine,
    FleetEngine,
    build_penalty_qubo,
    density_heuristic_penalty,
    encode_with_slacks,
    normalize_problem,
    penalty_method_solve,
    tune_penalty,
    LagrangianIsing,
)
from repro.ising import (
    AnnealingBackend,
    BatchAnnealResult,
    IsingModel,
    QuboModel,
    PBitMachine,
    FleetMachine,
    simulated_annealing,
    parallel_tempering,
    brute_force_ground_state,
)
from repro.core.poly import PolyLagrangianIsing, PolyProblem
from repro.problems import (
    QkpInstance,
    MkpInstance,
    KnapsackInstance,
    MaxCutInstance,
    Max3SatInstance,
    generate_qkp,
    generate_mkp,
    generate_max3sat,
    paper_qkp_instance,
    paper_mkp_instance,
)

__version__ = "2.7.0"

# The sweep drivers live under repro.analysis, whose package import pulls in
# the whole experiment harness; resolve them lazily so `import repro` (and
# every executor worker process) stays light.  The service layer is lazy
# for the same reason: solver workers must not drag the HTTP stack in.
_SWEEP_EXPORTS = ("ParameterSweep", "BackendSweep", "BackendSweepReport",
                  "sweep_backends")
_SERVICE_EXPORTS = ("SolverService", "ServicePool", "RequestLogger")


def __getattr__(name):
    if name in _SWEEP_EXPORTS:
        from repro.analysis import sweep as _sweep

        value = getattr(_sweep, name)
        globals()[name] = value
        return value
    if name in _SERVICE_EXPORTS:
        from repro import service as _service

        value = getattr(_service, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "solve",
    "solve_fleet",
    "solve_many",
    "fleet_jobs",
    "fused_blockers",
    "iter_solve_many",
    "SolveJob",
    "JobOutcome",
    "SolveJobError",
    "SolveManyReport",
    "SolveManyStats",
    "SolveReport",
    "SolverSession",
    "SolverService",
    "ServicePool",
    "RequestLogger",
    "ParameterSweep",
    "BackendSweep",
    "BackendSweepReport",
    "sweep_backends",
    "available_backends",
    "available_methods",
    "backend_info",
    "describe_backends",
    "describe_methods",
    "make_backend_factory",
    "method_info",
    "register_backend",
    "register_method",
    "AnnealingBackend",
    "BatchAnnealResult",
    "ConstrainedProblem",
    "LinearConstraints",
    "SaimConfig",
    "SaimResult",
    "SaimEngine",
    "FleetEngine",
    "build_penalty_qubo",
    "density_heuristic_penalty",
    "encode_with_slacks",
    "normalize_problem",
    "penalty_method_solve",
    "tune_penalty",
    "LagrangianIsing",
    "PolyLagrangianIsing",
    "PolyProblem",
    "IsingModel",
    "QuboModel",
    "PBitMachine",
    "FleetMachine",
    "simulated_annealing",
    "parallel_tempering",
    "brute_force_ground_state",
    "QkpInstance",
    "MkpInstance",
    "KnapsackInstance",
    "MaxCutInstance",
    "Max3SatInstance",
    "generate_qkp",
    "generate_mkp",
    "generate_max3sat",
    "paper_qkp_instance",
    "paper_mkp_instance",
    "__version__",
]
