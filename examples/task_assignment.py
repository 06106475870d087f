"""Task assignment with one-hot equalities: SAIM on the GAP.

QKP and MKP only have inequality constraints (turned into equalities with
slacks).  The generalized assignment problem adds *native* equality
constraints — each job must run on exactly one machine — which exercises
the part of SAIM where Lagrange multipliers move in both directions (a job
assigned twice pushes its multiplier up; an unassigned job pushes it down).

Scenario: schedule compute jobs onto heterogeneous machines, minimizing
total runtime cost under per-machine capacity.

Run:  python examples/task_assignment.py
"""

import numpy as np

from repro import SaimConfig, solve
from repro.problems.gap import generate_gap, solve_gap_exact


def main():
    instance = generate_gap(num_jobs=6, num_agents=3, tightness=1.3, rng=8)
    print(f"Scenario: {instance.num_jobs} jobs on {instance.num_agents} machines "
          f"({instance.num_variables} binary variables)")
    print(f"Machine capacities: {instance.capacities.astype(int).tolist()}")

    x_exact, exact_cost = solve_gap_exact(instance)
    print(f"\nExact optimum (HiGHS): cost = {exact_cost:.0f}, "
          f"assignment = {instance.assignment_of(x_exact).tolist()}")

    config = SaimConfig(
        num_iterations=150, mcs_per_run=300,
        eta=5.0, eta_decay="sqrt", normalize_step=True, alpha=5.0,
    )
    result = solve(instance, config=config, rng=1)

    if not result.found_feasible:
        print("SAIM found no complete assignment - increase the budget")
        return
    assignment = instance.assignment_of(result.best_x)
    print(f"SAIM:                  cost = {result.best_cost:.0f} "
          f"({100 * exact_cost / result.best_cost:.1f}% of optimal efficiency), "
          f"assignment = {assignment.tolist()}")
    print(f"Feasible samples: {100 * result.feasible_ratio:.0f}%")

    # The equality multipliers are signed: jobs over-assigned during the
    # search pushed lambda up, unassigned jobs pushed it down.
    job_lambdas = result.final_lambdas[: instance.num_jobs]
    print(f"\nFinal job multipliers (signed): "
          f"{np.round(job_lambdas, 2).tolist()}")
    loads = np.zeros(instance.num_agents)
    for job, agent in enumerate(assignment):
        loads[agent] += instance.loads[job, agent]
    for agent in range(instance.num_agents):
        print(f"  machine {agent}: load {loads[agent]:.0f} / "
              f"{instance.capacities[agent]:.0f}")


if __name__ == "__main__":
    main()
