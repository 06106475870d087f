"""Constrained binary optimization problems (paper eq. 2).

A :class:`ConstrainedProblem` is

    minimize    f(x) = x^T Q x + c^T x + offset        x in {0,1}^N
    subject to  A_eq  x  =  b_eq
                A_ineq x <= b_ineq

which covers both benchmark families of the paper: QKP (quadratic ``f``, one
inequality) and MKP (linear ``f``, M inequalities).  ``f`` is stored in the
same convention as :class:`repro.ising.model.QuboModel` (symmetric ``Q`` with
zero diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_binary_vector, check_finite


@dataclass(frozen=True)
class LinearConstraints:
    """A block of linear constraints ``A x (=|<=) b``."""

    coefficients: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        b = np.atleast_1d(np.asarray(self.bounds, dtype=float))
        if a.shape[0] != b.size:
            raise ValueError(
                f"constraint count mismatch: A has {a.shape[0]} rows, b has {b.size}"
            )
        check_finite(a, "coefficients")
        check_finite(b, "bounds")
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "bounds", b)

    @property
    def num_constraints(self) -> int:
        """Number of constraint rows."""
        return self.bounds.size

    @property
    def num_variables(self) -> int:
        """Number of variables the constraints act on."""
        return self.coefficients.shape[1]

    def residuals(self, x) -> np.ndarray:
        """``A x - b`` (zero means tight / satisfied-with-equality)."""
        return self.coefficients @ np.asarray(x, dtype=float) - self.bounds

    @staticmethod
    def empty(num_variables: int) -> "LinearConstraints":
        """A block with zero constraints over ``num_variables`` variables."""
        return LinearConstraints(
            np.zeros((0, num_variables)), np.zeros(0)
        )


def within_tolerance(equalities: LinearConstraints,
                     inequalities: LinearConstraints, x, tol: float) -> bool:
    """True iff ``x`` meets both blocks within ``tol``.

    The accept set of ``max(violations) <= tol`` (see
    :meth:`ConstrainedProblem.violations`), decided block by block: each
    non-empty block's ``A x - b`` is compared with ``tol`` directly, by
    magnitude for the equalities.  A NaN residual fails.  No violation is
    below zero, so a negative or NaN ``tol`` fails every non-empty block.
    """
    if not (equalities.bounds.size or inequalities.bounds.size):
        return True
    if not tol >= 0.0:
        return False
    x = np.asarray(x, dtype=float)
    if equalities.bounds.size and not (
        np.abs(equalities.residuals(x)) <= tol
    ).all():
        return False
    return bool(not inequalities.bounds.size
                or (inequalities.residuals(x) <= tol).all())


@dataclass(frozen=True)
class ConstrainedProblem:
    """Binary minimization with a quadratic objective and linear constraints.

    Parameters
    ----------
    quadratic / linear / offset:
        Objective ``f(x) = x^T Q x + c^T x + offset``; ``Q`` must be
        symmetric with a zero diagonal (use :meth:`from_objective` to fold a
        diagonal automatically).
    equalities / inequalities:
        Constraint blocks; either may be omitted.
    name:
        Free-form label carried into results and tables.
    """

    quadratic: np.ndarray
    linear: np.ndarray
    offset: float = 0.0
    equalities: LinearConstraints | None = None
    inequalities: LinearConstraints | None = None
    name: str = ""

    def __post_init__(self):
        quad = np.asarray(self.quadratic, dtype=float)
        lin = np.asarray(self.linear, dtype=float)
        if quad.ndim != 2 or quad.shape[0] != quad.shape[1]:
            raise ValueError(f"Q must be square, got shape {quad.shape}")
        if lin.ndim != 1 or lin.size != quad.shape[0]:
            raise ValueError(f"c must have length {quad.shape[0]}, got {lin.shape}")
        check_finite(quad, "quadratic")
        check_finite(lin, "linear")
        check_finite(float(self.offset), "offset")
        # Exact compare first, as in check_square_symmetric.
        if not (np.array_equal(quad, quad.T) or np.allclose(quad, quad.T)):
            raise ValueError("Q must be symmetric")
        if np.any(np.diag(quad) != 0):
            raise ValueError("Q diagonal must be zero; use from_objective to fold it")
        n = lin.size
        eq = self.equalities if self.equalities is not None else LinearConstraints.empty(n)
        ineq = self.inequalities if self.inequalities is not None else LinearConstraints.empty(n)
        for block, label in ((eq, "equalities"), (ineq, "inequalities")):
            if block.num_variables != n:
                raise ValueError(
                    f"{label} act on {block.num_variables} variables, objective has {n}"
                )
        object.__setattr__(self, "quadratic", quad)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "equalities", eq)
        object.__setattr__(self, "inequalities", ineq)

    @classmethod
    def from_objective(
        cls,
        quadratic=None,
        linear=None,
        offset: float = 0.0,
        equalities: LinearConstraints | None = None,
        inequalities: LinearConstraints | None = None,
        name: str = "",
    ) -> "ConstrainedProblem":
        """Build a problem, folding any ``Q`` diagonal into the linear term."""
        if quadratic is None and linear is None:
            raise ValueError("at least one of quadratic / linear must be given")
        if quadratic is None:
            lin = np.asarray(linear, dtype=float)
            quad = np.zeros((lin.size, lin.size))
        else:
            quad = np.asarray(quadratic, dtype=float)
            quad = (quad + quad.T) / 2.0
            diag = np.diag(quad).copy()
            quad = quad.copy()
            np.fill_diagonal(quad, 0.0)
            lin = np.zeros(quad.shape[0]) if linear is None else np.asarray(linear, dtype=float)
            lin = lin + diag
        return cls(quad, lin, offset, equalities, inequalities, name)

    @property
    def num_variables(self) -> int:
        """Number of binary decision variables."""
        return self.linear.size

    @property
    def num_constraints(self) -> int:
        """Total number of constraint rows (equalities + inequalities)."""
        return self.equalities.num_constraints + self.inequalities.num_constraints

    def objective(self, x) -> float:
        """Objective value ``f(x)`` for a binary assignment."""
        x = np.asarray(x, dtype=float)
        return float(x @ self.quadratic @ x + self.linear @ x + self.offset)

    def violations(self, x) -> np.ndarray:
        """Stacked constraint violations: ``|A_eq x - b_eq|`` then
        ``max(0, A_ineq x - b_ineq)``.  All zeros iff ``x`` is feasible."""
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
