"""Polynomial (PUBO) constrained problems and their SAIM Lagrangian.

A :class:`PolyProblem` generalizes :class:`~repro.core.problem.ConstrainedProblem`
beyond quadratic objectives:

    minimize    f(x) = sum_t w_t prod_{i in t} x_i + offset,   x in {0,1}^N
    subject to  A_eq  x  =  b_eq
                A_ineq x <= b_ineq

The constraints stay *linear* — that is what keeps Algorithm 1 intact: the
penalty ``P ||A x - b||^2`` is still quadratic, and the multiplier term
``lambda^T (A x - b)`` still only moves the degree-1 spin coefficients.
:class:`PolyLagrangianIsing` therefore exposes exactly the
``program_for(lambdas)`` surface of
:class:`~repro.core.lagrangian.LagrangianIsing`, with
:class:`~repro.ising.higher_order.PolyIsingModel` as the programmed
Hamiltonian instead of an :class:`~repro.ising.model.IsingModel`.

The binary -> spin conversion is the subset expansion of
``x_i = (1 + s_i) / 2``: a degree-k binary monomial spreads over all
``2^k`` spin monomials with weight ``w 2^{-k}``.  Coefficients that cancel
are pruned by the spin model itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.core.problem import LinearConstraints, within_tolerance
from repro.ising.higher_order import PolyIsingModel
from repro.utils.validation import check_binary_vector, check_finite


@dataclass(frozen=True)
class PolyProblem:
    """Binary minimization with a polynomial objective and linear constraints.

    Parameters
    ----------
    num_variables:
        Number of binary decision variables.
    terms:
        Mapping from a tuple of distinct variable indices to the coefficient
        of ``prod x_i``; the empty tuple is not allowed — use ``offset``.
        Duplicate keys are summed; exact-zero coefficients are pruned.
    offset:
        Constant objective shift.
    equalities / inequalities:
        Linear constraint blocks; either may be omitted.
    name:
        Free-form label carried into results and tables.
    """

    num_variables: int
    terms: dict
    offset: float = 0.0
    equalities: LinearConstraints | None = None
    inequalities: LinearConstraints | None = None
    name: str = ""

    def __post_init__(self):
        n = int(self.num_variables)
        if n < 1:
            raise ValueError(f"num_variables must be >= 1, got {n}")
        merged = {}
        for indices, coefficient in self.terms.items():
            key = tuple(sorted(int(i) for i in indices))
            if len(key) == 0:
                raise ValueError("constant terms belong in offset")
            if len(set(key)) != len(key):
                raise ValueError(f"repeated variable index in term {indices}")
            if not all(0 <= i < n for i in key):
                raise ValueError(f"term {indices} out of range for {n} variables")
            merged[key] = merged.get(key, 0.0) + float(coefficient)
        check_finite(list(merged.values()), "terms")
        check_finite(float(self.offset), "offset")
        cleaned = {key: c for key, c in merged.items() if c != 0.0}
        eq = self.equalities if self.equalities is not None else LinearConstraints.empty(n)
        ineq = self.inequalities if self.inequalities is not None else LinearConstraints.empty(n)
        for block, label in ((eq, "equalities"), (ineq, "inequalities")):
            if block.num_variables != n:
                raise ValueError(
                    f"{label} act on {block.num_variables} variables, objective has {n}"
                )
        object.__setattr__(self, "num_variables", n)
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "equalities", eq)
        object.__setattr__(self, "inequalities", ineq)

    @property
    def max_order(self) -> int:
        """Largest monomial degree present (0 for a constant objective)."""
        return max((len(t) for t in self.terms), default=0)

    @property
    def num_constraints(self) -> int:
        """Total number of constraint rows (equalities + inequalities)."""
        return self.equalities.num_constraints + self.inequalities.num_constraints

    def objective(self, x) -> float:
        """Objective value ``f(x)`` for a binary assignment."""
        x = np.asarray(x, dtype=float)
        total = self.offset
        for indices, coefficient in self.terms.items():
            total += coefficient * float(np.prod(x[list(indices)]))
        return float(total)

    def violations(self, x) -> np.ndarray:
        """Stacked constraint violations (all zeros iff ``x`` is feasible)."""
        x = np.asarray(x, dtype=float)
        eq = np.abs(self.equalities.residuals(x))
        ineq = np.maximum(0.0, self.inequalities.residuals(x))
        return np.concatenate([eq, ineq])

    def is_feasible(self, x, tol: float = 1e-9) -> bool:
        """True iff every constraint is satisfied within ``tol``."""
        return within_tolerance(self.equalities, self.inequalities, x, tol)

    def check_solution(self, x) -> tuple[float, bool]:
        """Validated ``(objective, feasible)`` pair for an assignment."""
        x = check_binary_vector(x, self.num_variables)
        return self.objective(x), self.is_feasible(x)


def binary_terms_to_spin(terms: dict, offset: float = 0.0) -> tuple[dict, float]:
    """Convert binary monomials to the spin-polynomial coefficient table.

    Returns ``(spin_terms, spin_offset)`` such that

        sum_t w_t prod x_i + offset
            == -sum_S spin_terms[S] prod s_i + spin_offset

    under ``x_i = (1 + s_i) / 2`` — i.e. the returned coefficients follow
    the :class:`~repro.ising.higher_order.PolyIsingModel` energy
    convention ``H(s) = -sum c prod s + offset`` directly.
    """
    spin_terms: dict = {}
    spin_offset = float(offset)
    for indices, weight in terms.items():
        indices = tuple(sorted(int(i) for i in indices))
        scale = float(weight) * 0.5 ** len(indices)
        for size in range(len(indices) + 1):
            for subset in combinations(indices, size):
                if size == 0:
                    spin_offset += scale
                else:
                    # Minimization objective -> Hamiltonian means the spin
                    # coefficient is the NEGATED expansion weight.
                    spin_terms[subset] = spin_terms.get(subset, 0.0) - scale
    return spin_terms, spin_offset


def build_penalty_poly(problem: PolyProblem, penalty: float) -> PolyIsingModel:
    """Spin model of ``f(x) + P ||A x - b||^2`` for an equality-form problem.

    The penalty expansion is the same Gram algebra as
    :func:`repro.core.penalty.build_penalty_qubo` (diagonal folded into the
    linear part because ``x_i^2 = x_i``), merged into the polynomial
    objective as binary terms before one spin conversion.
    """
    if penalty <= 0:
        raise ValueError(f"penalty must be positive, got {penalty}")
    if problem.inequalities.num_constraints:
        raise ValueError("build_penalty_poly expects an equality-form problem")
    a = problem.equalities.coefficients
    b = problem.equalities.bounds

    terms = dict(problem.terms)
    offset = problem.offset
    if b.size:
        gram = a.T @ a
        lin_pen = np.diag(gram) - 2.0 * (b @ a)
        for i in np.nonzero(lin_pen)[0]:
            key = (int(i),)
            terms[key] = terms.get(key, 0.0) + penalty * float(lin_pen[i])
        rows, cols = np.nonzero(np.triu(gram, k=1))
        for i, j in zip(rows, cols):
            key = (int(i), int(j))
            # x^T G x counts each off-diagonal pair twice.
            terms[key] = terms.get(key, 0.0) + 2.0 * penalty * float(gram[i, j])
        offset += penalty * float(b @ b)

    spin_terms, spin_offset = binary_terms_to_spin(terms, offset)
    return PolyIsingModel(problem.num_variables, spin_terms, spin_offset)


class PolyLagrangianIsing:
    """Polynomial view of ``L(x; lambda)`` with cheap multiplier updates.

    The drop-in analog of :class:`~repro.core.lagrangian.LagrangianIsing`
    for :class:`PolyProblem`: because the constraints are linear,
    ``lambda`` moves only the degree-1 spin coefficients and the offset —
    the order >= 2 terms never change — so ``program_for`` is the same
    single ``A^T lambda`` matvec.
    """

    def __init__(self, problem: PolyProblem, penalty: float):
        if problem.inequalities.num_constraints:
            raise ValueError("PolyLagrangianIsing expects an equality-form problem")
        self._problem = problem
        self._penalty = float(penalty)
        base = build_penalty_poly(problem, penalty)
        self._base_fields = base.fields
        self._base_offset = base.offset
        self._static_terms = {
            indices: coefficient
            for indices, coefficient in base.terms.items()
            if len(indices) >= 2
        }
        self._a = problem.equalities.coefficients
        self._b = problem.equalities.bounds

    @property
    def num_multipliers(self) -> int:
        """Number of Lagrange multipliers (one per equality row)."""
        return self._b.size

    @property
    def penalty(self) -> float:
        """The fixed quadratic penalty ``P``."""
        return self._penalty

    @property
    def num_spins(self) -> int:
        """Number of spins (= binary variables of the encoded form)."""
        return self._base_fields.size

    @property
    def base_ising(self) -> PolyIsingModel:
        """Spin model of ``E(x)`` alone (``lambda = 0``)."""
        return self.model_for_fields(self._base_fields, self._base_offset)

    def model_for_fields(self, fields, offset: float) -> PolyIsingModel:
        """The polynomial model with the given degree-1 coefficients."""
        terms = dict(self._static_terms)
        fields = np.asarray(fields, dtype=float)
        for i in np.nonzero(fields)[0]:
            terms[(int(i),)] = float(fields[i])
        return PolyIsingModel(self.num_spins, terms, float(offset))

    def fields_for(self, lambdas) -> np.ndarray:
        """Degree-1 spin coefficients ``h(lambda)``."""
        lambdas = self._check_lambdas(lambdas)
        return self._base_fields - (self._a.T @ lambdas) / 2.0

    def offset_for(self, lambdas) -> float:
        """Constant energy offset for ``lambda``."""
        lambdas = self._check_lambdas(lambdas)
        shift = self._a.T @ lambdas
        return self._base_offset + float(shift.sum()) / 2.0 - float(lambdas @ self._b)

    def program_for(self, lambdas, out=None) -> tuple[np.ndarray, float]:
        """``(fields, offset)`` for ``lambda`` from a *single* matvec.

        Identical contract to
        :meth:`repro.core.lagrangian.LagrangianIsing.program_for` —
        ``out`` receives the fields in place when given.
        """
        lambdas = self._check_lambdas(lambdas)
        shift = self._a.T @ lambdas
        offset = (
            self._base_offset + float(shift.sum()) / 2.0
            - float(lambdas @ self._b)
        )
        if out is None:
            fields = self._base_fields - shift / 2.0
        else:
            if out.shape != self._base_fields.shape:
                raise ValueError(
                    f"out must have shape {self._base_fields.shape}, "
                    f"got {out.shape}"
                )
            np.multiply(shift, -0.5, out=out)
            out += self._base_fields
            fields = out
        return fields, offset

    def ising_for(self, lambdas) -> PolyIsingModel:
        """Full polynomial model of ``L(.; lambda)`` (static terms shared)."""
        return self.model_for_fields(
            self.fields_for(lambdas), self.offset_for(lambdas)
        )

    def residuals(self, x) -> np.ndarray:
        """Constraint residuals ``g(x) = A x - b`` (the dual subgradient)."""
        return self._problem.equalities.residuals(x)

    def energy(self, x, lambdas) -> float:
        """``L(x; lambda)`` evaluated directly in binary variables."""
        lambdas = self._check_lambdas(lambdas)
        residuals = self.residuals(x)
        return (
            self._problem.objective(x)
            + self._penalty * float(residuals @ residuals)
            + float(lambdas @ residuals)
        )

    def _check_lambdas(self, lambdas) -> np.ndarray:
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.shape != (self.num_multipliers,):
            raise ValueError(
                f"expected {self.num_multipliers} multipliers, got shape {lambdas.shape}"
            )
        return lambdas
