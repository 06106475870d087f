"""The paper's contribution: constrained optimization on Ising machines.

Pipeline (Fig. 1 of the paper):

1. :class:`~repro.core.problem.ConstrainedProblem` — quadratic objective with
   linear constraints over binary variables.
2. :mod:`~repro.core.encoding` — inequalities become equalities through
   binary-decomposed slack variables; coefficients are normalized.
3. :mod:`~repro.core.penalty` — the classical penalty method builds
   ``E = f + P ||g||^2`` as a QUBO (and the tuning-loop baseline).
4. :mod:`~repro.core.lagrangian` — adds the relaxation ``L = E + lambda^T g``
   with cheap field-only updates when ``lambda`` moves.
5. :class:`~repro.core.engine.SaimEngine` — Algorithm 1: alternate
   Ising-machine minimization with subgradient multiplier ascent.
"""

from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.core.encoding import EncodedProblem, encode_with_slacks, normalize_problem
from repro.core.penalty import (
    build_penalty_qubo,
    density_heuristic_penalty,
    penalty_method_solve,
    PenaltyMethodResult,
    tune_penalty,
    PenaltyTuningResult,
)
from repro.core.lagrangian import LagrangianIsing
from repro.core.schedule import (
    linear_beta_schedule,
    geometric_beta_schedule,
    constant_beta_schedule,
)
from repro.core.saim import SaimConfig, SaimResult
from repro.core.engine import SaimEngine
from repro.core.fleet_engine import FleetEngine
from repro.core.report import SolveReport, coerce_report
from repro.core.results import FeasibleRecord, SolveTrace
from repro.core.hybrid_encoding import (
    encode_with_hybrid_slacks,
    hybrid_slack_weights,
    max_coefficient_ratio,
)

__all__ = [
    "encode_with_hybrid_slacks",
    "hybrid_slack_weights",
    "max_coefficient_ratio",
    "ConstrainedProblem",
    "LinearConstraints",
    "EncodedProblem",
    "encode_with_slacks",
    "normalize_problem",
    "build_penalty_qubo",
    "density_heuristic_penalty",
    "penalty_method_solve",
    "PenaltyMethodResult",
    "tune_penalty",
    "PenaltyTuningResult",
    "LagrangianIsing",
    "linear_beta_schedule",
    "geometric_beta_schedule",
    "constant_beta_schedule",
    "SaimEngine",
    "FleetEngine",
    "SaimConfig",
    "SaimResult",
    "SolveReport",
    "coerce_report",
    "FeasibleRecord",
    "SolveTrace",
]
