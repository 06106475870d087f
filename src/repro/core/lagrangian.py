"""Lagrange relaxation on top of the penalty QUBO (paper Section II-B).

The relaxed energy (eq. 5) is

    L(x; lambda) = E(x) + lambda^T g(x)
                 = f(x) + P ||A x - b||^2 + lambda^T (A x - b)

Because ``g`` is linear, changing ``lambda`` only moves the *linear* Ising
fields and the constant offset — the coupling matrix ``J`` never changes.
:class:`LagrangianIsing` exploits this: it converts the penalty QUBO to Ising
form once and serves O(M N) field updates per multiplier step, which is what
makes Algorithm 1's per-iteration reprogramming cheap ("the Ising
coefficients J and h are consequently updated at each iteration").
"""

from __future__ import annotations

import numpy as np

from repro.core.penalty import build_penalty_qubo, penalty_terms
from repro.core.problem import ConstrainedProblem
from repro.ising.model import IsingModel, QuboModel, spin_terms
from repro.utils.validation import check_positive


def saim_lagrangian(problem: ConstrainedProblem, alpha: float = 2.0,
                    penalty: float | None = None) -> "LagrangianIsing":
    """The Lagrangian system SAIM anneals for ``problem``.

    Applies the engine's standard preprocessing — slack-encode any
    inequalities, normalize, set ``P`` by the density heuristic unless an
    explicit ``penalty`` is given — and returns the resulting
    :class:`LagrangianIsing`.  Benchmarks and tests that need "the Ising
    model SAIM actually sweeps" (``.base_ising`` is the lambda = 0 view)
    use this instead of re-implementing the chain.
    """
    from repro.core.encoding import encode_with_slacks, normalize_problem
    from repro.core.penalty import density_heuristic_penalty

    encoded = encode_with_slacks(problem)
    normalized, _ = normalize_problem(encoded.problem)
    if penalty is None:
        penalty = density_heuristic_penalty(normalized, alpha=alpha)
    return LagrangianIsing(normalized, penalty)


class LagrangianIsing:
    """Ising view of ``L(x; lambda)`` with cheap multiplier updates.

    ``J``, the ``lambda = 0`` fields and the offset come straight from the
    problem's arrays: :func:`repro.core.penalty.penalty_terms` expands the
    penalty into a fresh ``Q`` and :func:`repro.ising.model.spin_terms`
    turns that ``Q`` into ``J`` in place — the two helpers
    :func:`~repro.core.penalty.build_penalty_qubo` and
    :meth:`~repro.ising.model.QuboModel.to_ising` wrap, so the arrays are
    bit for bit theirs.  No :class:`~repro.ising.model.QuboModel` and no
    intermediate :class:`~repro.ising.model.IsingModel` is built: the
    problem was validated when it was built, and :attr:`base_ising`
    builds (and validates) the one model a machine is made from.  Only
    :meth:`energy` reads the penalty QUBO, built on its first call.

    Parameters
    ----------
    problem:
        Equality-form (already encoded and normalized) problem.
    penalty:
        The fixed quadratic penalty ``P`` (typically ``P < P_C`` — the whole
        point of SAIM is that this no longer needs tuning).
    """

    def __init__(self, problem: ConstrainedProblem, penalty: float):
        if problem.inequalities.num_constraints:
            raise ValueError("LagrangianIsing expects an equality-form problem")
        self._problem = problem
        self._penalty = check_positive(penalty, "penalty")
        self._qubo: QuboModel | None = None  # built by energy(), if called
        quadratic, linear, offset = penalty_terms(problem, self._penalty)
        self._coupling, self._base_fields, self._base_offset = spin_terms(
            quadratic, linear, offset, out=quadratic
        )
        # lambda^T (A x - b) maps to QUBO linear term A^T lambda and offset
        # -lambda^T b; through x = (1 + s)/2 that is fields -A^T lambda / 2
        # and offset sum(A^T lambda)/2 - lambda^T b.
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
    def base_ising(self) -> IsingModel:
        """Ising model of ``E(x)`` alone (``lambda = 0``)."""
        return IsingModel(self._coupling, self._base_fields.copy(), self._base_offset)

    @property
    def num_spins(self) -> int:
        """Number of Ising spins (= binary variables of the encoded form)."""
        return self._base_fields.size

    def fields_for(self, lambdas) -> np.ndarray:
        """Linear Ising fields ``h(lambda)``."""
        lambdas = self._check_lambdas(lambdas)
        return self._base_fields - (self._a.T @ lambdas) / 2.0

    def offset_for(self, lambdas) -> float:
        """Constant Ising offset for ``lambda``."""
        lambdas = self._check_lambdas(lambdas)
        shift = self._a.T @ lambdas
        return self._base_offset + float(shift.sum()) / 2.0 - float(lambdas @ self._b)

    def program_for(self, lambdas, out=None) -> tuple[np.ndarray, float]:
        """``(fields, offset)`` for ``lambda`` from a *single* matvec.

        The per-iteration reprogramming call of Algorithm 1:
        :meth:`fields_for` and :meth:`offset_for` each redo the same
        ``A^T lambda`` product — this computes it once and derives both.
        ``out`` (shape ``(num_spins,)``) receives the fields in place, so a
        driver looping over multiplier updates can reuse one buffer and
        allocate nothing per iteration (the returned array *is* ``out``
        then; machines copy on ``set_fields``, so reuse is safe).
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

    def ising_for(self, lambdas) -> IsingModel:
        """Full Ising model of ``L(.; lambda)`` (couplings shared)."""
        return IsingModel(
            self._coupling, self.fields_for(lambdas), self.offset_for(lambdas)
        )

    def residuals(self, x) -> np.ndarray:
        """Constraint residuals ``g(x) = A x - b`` — the subgradient of the
        dual function at the minimizer (paper eq. 7)."""
        return self._problem.equalities.residuals(x)

    def energy(self, x, lambdas) -> float:
        """``L(x; lambda)`` evaluated directly in binary variables."""
        lambdas = self._check_lambdas(lambdas)
        if self._qubo is None:
            self._qubo = build_penalty_qubo(self._problem, self._penalty)
        penalized = self._qubo.energy(x)
        return penalized + float(lambdas @ self.residuals(x))

    def _check_lambdas(self, lambdas) -> np.ndarray:
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.shape != (self.num_multipliers,):
            raise ValueError(
                f"expected {self.num_multipliers} multipliers, got shape {lambdas.shape}"
            )
        return lambdas
