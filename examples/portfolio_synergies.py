"""Portfolio selection with pairwise synergies: QKP, SAIM vs penalty method.

Assets have individual expected returns and *pairwise* synergy values
(e.g. complementary positions), with a total capital constraint — exactly
the quadratic knapsack structure of paper eq. 12.  The example contrasts:

- the classical penalty method at the small heuristic P = 2dN (it mostly
  produces infeasible samples, Fig. 1b), and
- SAIM at the same P, which shapes the landscape on-line and recovers
  high-quality feasible portfolios (Fig. 1c/d).

It also prints the Lagrange-multiplier staircase of Fig. 3c as ASCII art,
then goes beyond the quadratic model: three-way *joint-venture* synergies
make the objective cubic, which no QKP can express — that portfolio is
solved through the ``higher_order`` (PUBO) backend.

Run:  python examples/portfolio_synergies.py
"""

import numpy as np

import repro
from repro import (
    LinearConstraints,
    PolyProblem,
    SaimConfig,
    encode_with_slacks,
    generate_qkp,
    penalty_method_solve,
)
from repro.analysis.figures import FigureSeries, ascii_plot
from repro.core.encoding import normalize_problem
from repro.core.penalty import density_heuristic_penalty


def main():
    # 50 assets, 50% synergy density - a shrunk 300-50-x of the paper.
    instance = generate_qkp(num_items=50, density=0.5, rng=21)
    problem = instance.to_problem()
    encoded = encode_with_slacks(problem)
    normalized, _ = normalize_problem(encoded.problem)
    small_p = density_heuristic_penalty(normalized, alpha=2.0)
    print(f"Portfolio: {instance.num_items} assets, capital cap "
          f"{instance.capacity:.0f}, heuristic P = 2dN = {small_p:.1f}")

    budget_runs, budget_mcs = 120, 400

    penalty = penalty_method_solve(
        encoded, small_p, num_runs=budget_runs, mcs_per_run=budget_mcs, rng=5
    )
    print(f"\nPenalty method @ P = 2dN, {budget_runs} runs x {budget_mcs} MCS:")
    print(f"  feasible samples: {100 * penalty.feasible_ratio:.0f}%")
    if penalty.best_x is not None:
        print(f"  best portfolio value: {-penalty.best_cost:.0f}")
    else:
        print("  no feasible portfolio found (P below critical value)")

    config = SaimConfig(num_iterations=budget_runs, mcs_per_run=budget_mcs)
    result = repro.solve(problem, config=config, rng=5)
    print(f"\nSAIM, same budget and same initial P:")
    print(f"  feasible samples: {100 * result.feasible_ratio:.0f}%")
    if result.found_feasible:
        print(f"  best portfolio value: {-result.best_cost:.0f}")
        print(f"  selected assets: {int(result.best_x.sum())} of {instance.num_items}")

    print("\nLagrange multiplier trajectory (Fig. 3c staircase):")
    trace = result.trace
    series = FigureSeries(
        "lambda", np.arange(trace.num_iterations), trace.lambdas[:, 0]
    )
    print(ascii_plot(series, width=64, height=10))

    higher_order_synergies()


def higher_order_synergies():
    """Triple synergies make the objective cubic — PUBO territory."""
    rng = np.random.default_rng(22)
    num_assets = 16
    returns = rng.uniform(1.0, 10.0, size=num_assets)
    weights = rng.uniform(1.0, 6.0, size=num_assets)
    capacity = 0.5 * weights.sum()

    # Minimization objective: negated value.  Pairwise synergies as before,
    # plus three-asset joint ventures no quadratic model can express.
    terms = {(int(i),): -float(returns[i]) for i in range(num_assets)}
    for _ in range(2 * num_assets):
        i, j = sorted(int(v) for v in rng.choice(num_assets, 2, replace=False))
        terms[(i, j)] = terms.get((i, j), 0.0) - float(rng.uniform(0.5, 3.0))
    for _ in range(num_assets):
        i, j, k = sorted(int(v) for v in rng.choice(num_assets, 3, replace=False))
        terms[(i, j, k)] = terms.get((i, j, k), 0.0) - float(rng.uniform(1.0, 5.0))

    portfolio = PolyProblem(
        num_variables=num_assets,
        terms=terms,
        inequalities=LinearConstraints(weights[None, :], np.array([capacity])),
        name="joint-venture-portfolio",
    )
    report = repro.solve(
        portfolio, backend="higher_order", num_iterations=40,
        mcs_per_run=200, rng=9,
    )
    print(f"\nCubic portfolio ({num_assets} assets, "
          f"{sum(1 for t in terms if len(t) == 3)} joint-venture triples), "
          f"backend='higher_order':")
    print(f"  feasible: {report.feasible}")
    print(f"  best portfolio value: {-report.best_cost:.1f}")
    print(f"  selected assets: {int(report.best_x.sum())} of {num_assets}, "
          f"capital {float(weights @ report.best_x):.1f} / {capacity:.1f}")


if __name__ == "__main__":
    main()
