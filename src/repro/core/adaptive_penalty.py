"""Adaptive-penalty SAIM — the paper's suggested feasibility booster.

Section IV-B observes that MKP feasibility (~5% of samples) is far below
QKP's and suggests: "To increase feasibility, one could increase the
initial penalties set by P".  This module implements that future-work item
as an outer loop around SAIM: monitor the feasible-sample rate over a
window; when it falls below a floor, multiply the quadratic penalty ``P``
and rebuild the machine (keeping the learned multipliers, which remain
valid — ``lambda`` and ``P`` shape the landscape independently).

Between two anneals it runs the engine's own loop body
(:class:`repro.core.engine.SaimRun`) on a serial p-bit machine, so every
:class:`~repro.core.saim.SaimConfig` knob — schedule, eta decay, early
exits, ``record_trace``, ``dtype`` — behaves as in
:class:`~repro.core.engine.SaimEngine`; with no escalation the result is
exactly ``SaimEngine(base).solve(problem, rng)``.  On escalation the run
rebuilds its Lagrangian from its normalized problem at the new ``P``.

A second suggestion from [16] — artificially reducing the capacities so
samples are biased into the feasible region — lives in
:func:`repro.core.adaptive_penalty.reduced_capacity_problem`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.encoding import encode_with_slacks
from repro.core.engine import SaimRun
from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.core.saim import SaimConfig, SaimResult
from repro.ising.pbit import PBitMachine
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class AdaptivePenaltyConfig:
    """Outer-loop settings for the adaptive-penalty variant.

    ``window`` iterations between feasibility checks; below
    ``feasibility_floor`` the penalty multiplies by ``growth`` (up to
    ``max_escalations`` times).
    """

    base: SaimConfig
    window: int = 25
    feasibility_floor: float = 0.05
    growth: float = 2.0
    max_escalations: int = 4

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 <= self.feasibility_floor <= 1.0:
            raise ValueError(
                f"feasibility_floor must be in [0, 1], got {self.feasibility_floor}"
            )
        if self.growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {self.growth}")
        if self.max_escalations < 0:
            raise ValueError(
                f"max_escalations must be >= 0, got {self.max_escalations}"
            )


@dataclass
class AdaptivePenaltyResult:
    """SAIM result plus the escalation history ``[(iteration, new_P), ...]``."""

    result: SaimResult
    escalations: list


class AdaptivePenaltySaim:
    """Algorithm 1 with on-line penalty escalation (see module docstring)."""

    def __init__(self, config: AdaptivePenaltyConfig):
        self.config = config

    def solve(self, problem: ConstrainedProblem, rng=None) -> AdaptivePenaltyResult:
        """Run the adaptive loop; multipliers survive penalty escalations."""
        outer = self.config
        config = outer.base
        rng = ensure_rng(rng)
        run = SaimRun(encode_with_slacks(problem), config)
        machine = PBitMachine(
            run.lagrangian.base_ising, rng=rng, dtype=config.dtype
        )
        escalations = []
        for k in range(config.num_iterations):
            machine.set_fields(*run.program(k))
            if not run.advance(machine.anneal_many(run.schedule, 1), k):
                break
            # Outer loop: escalate P when the window stays infeasible.
            if (k + 1) % outer.window or len(escalations) == outer.max_escalations:
                continue
            window = run.history.feasible[k + 1 - outer.window:k + 1]
            if window.sum() / outer.window < outer.feasibility_floor:
                run.set_penalty(run.penalty * outer.growth)
                machine = PBitMachine(
                    run.lagrangian.base_ising, rng=rng, dtype=config.dtype
                )
                escalations.append((k + 1, run.penalty))
        return AdaptivePenaltyResult(result=run.result(), escalations=escalations)


def reduced_capacity_problem(
    problem: ConstrainedProblem, shrink: float
) -> ConstrainedProblem:
    """The capacity-reduction trick of [16]: solve with ``b' = shrink * b``.

    Shrinking the inequality bounds biases samples into the interior of the
    original feasible region (more samples satisfy the *true* constraints);
    solutions remain feasible for the original problem but the optimum may
    be cut off, so this is a feasibility/quality trade.  Feasibility and
    cost must always be evaluated against the *original* problem.
    """
    if not 0.0 < shrink <= 1.0:
        raise ValueError(f"shrink must be in (0, 1], got {shrink}")
    ineq = problem.inequalities
    return ConstrainedProblem(
        quadratic=problem.quadratic,
        linear=problem.linear,
        offset=problem.offset,
        equalities=problem.equalities,
        inequalities=LinearConstraints(
            ineq.coefficients.copy(), ineq.bounds * shrink
        ),
        name=problem.name,
    )
