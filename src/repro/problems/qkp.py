"""Quadratic knapsack problem (QKP), paper eq. 12.

    min_x  -1/2 x^T W x - h^T x        x in {0,1}^N
    s.t.   w^T x <= b

``h`` are individual item values, ``W`` the symmetric pairwise values
(zero diagonal), ``w`` the item weights and ``b`` the knapsack capacity.
Costs are negative at good solutions; the paper's accuracy metric (eq. 13)
is ``100 * cost / OPT`` over feasible samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.utils.validation import check_binary_vector, check_square_symmetric


@dataclass(frozen=True)
class QkpInstance:
    """One QKP instance.

    Attributes
    ----------
    values:
        Individual item values ``h`` (length N, non-negative).
    pair_values:
        Pairwise values ``W`` (N x N symmetric, zero diagonal).
    weights:
        Item weights ``w`` (length N, positive).
    capacity:
        Knapsack capacity ``b``.
    name:
        Label such as ``"300-50-8"`` (N - density% - index).
    """

    values: np.ndarray
    pair_values: np.ndarray
    weights: np.ndarray
    capacity: float
    name: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        pair = check_square_symmetric(self.pair_values, name="W")
        n = values.size
        if pair.shape != (n, n):
            raise ValueError(f"W must be {n}x{n}, got {pair.shape}")
        if pair.diagonal().any():
            raise ValueError("W diagonal must be zero (individual values go in h)")
        if weights.size != n:
            raise ValueError(f"weights must have length {n}, got {weights.size}")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if self.capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {self.capacity}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pair_values", pair)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "capacity", float(self.capacity))

    @property
    def num_items(self) -> int:
        """Number of items N."""
        return self.values.size

    @property
    def density(self) -> float:
        """Fraction of non-zero entries among the N(N-1)/2 item pairs."""
        n = self.num_items
        if n < 2:
            return 0.0
        nonzero = np.count_nonzero(np.triu(self.pair_values, k=1))
        return 2.0 * nonzero / (n * (n - 1))

    def profit(self, x) -> float:
        """Total (positive) value collected: ``1/2 x^T W x + h^T x``."""
        x = check_binary_vector(x, self.num_items).astype(float)
        return float(0.5 * x @ self.pair_values @ x + self.values @ x)

    def cost(self, x) -> float:
        """Minimization-form objective ``-profit(x)`` (paper eq. 12)."""
        return -self.profit(x)

    def total_weight(self, x) -> float:
        """Sum of weights of the selected items."""
        x = check_binary_vector(x, self.num_items).astype(float)
        return float(self.weights @ x)

    def is_feasible(self, x) -> bool:
        """True iff the selection fits in the knapsack."""
        return self.total_weight(x) <= self.capacity + 1e-9

    def to_problem(self) -> ConstrainedProblem:
        """Express the instance as a :class:`ConstrainedProblem`."""
        return ConstrainedProblem(
            quadratic=self.pair_values * -0.5,  # bit for bit -W / 2
            linear=-self.values,
            offset=0.0,
            equalities=None,
            inequalities=LinearConstraints(
                self.weights[None, :], np.array([self.capacity])
            ),
            name=self.name or f"qkp-{self.num_items}",
        )
