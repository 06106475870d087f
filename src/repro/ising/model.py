"""Ising and QUBO model containers with exact conversions.

The paper's Hamiltonian (eq. 1) is

    H(s) = - sum_{i<j} J_ij s_i s_j - sum_i h_i s_i          s_i in {-1, +1}

and constrained problems are first written as QUBOs

    E(x) = x^T Q x + c^T x + offset                          x_i in {0, 1}

before being mapped onto spins with ``x = (1 + s) / 2``.  Both containers
store dense symmetric matrices with zero diagonal (any diagonal supplied for
``Q`` is folded into the linear term, since ``x_i^2 = x_i``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_square_symmetric


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return ``(M + M^T) / 2`` so callers may pass upper-triangular data."""
    return (matrix + matrix.T) / 2.0


def spin_terms(quadratic, linear, offset: float, out=None) -> tuple:
    """``(J, h, offset)`` of ``x^T Q x + c^T x + offset`` under ``x = (1 + s) / 2``.

    ``J = -Q / 2``, ``h = -(Q 1 + c) / 2`` and the offset gains
    ``sum(Q) / 4 + sum(c) / 2``.  ``J`` is written to ``out`` when given,
    which may be ``quadratic`` itself: the sums are read first, so a
    caller that owns a fresh ``Q`` converts it in place.  ``x * -0.5``
    and ``-x / 2`` round the same real number, so they agree bit for bit.
    """
    row_sums = quadratic.sum(axis=1)
    total = quadratic.sum()
    coupling = np.multiply(quadratic, -0.5, out=out)
    fields = row_sums + linear
    fields *= -0.5
    return coupling, fields, float(offset + total / 4.0 + linear.sum() / 2.0)


@dataclass(frozen=True)
class QuboModel:
    """Quadratic unconstrained binary optimization model.

    Minimize ``x^T Q x + c^T x + offset`` over binary ``x``.  ``Q`` is stored
    symmetric with a zero diagonal; because ``x_i^2 = x_i``, any diagonal of a
    supplied matrix is moved into ``c`` by :meth:`from_matrices`.
    """

    quadratic: np.ndarray
    linear: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        quad = check_square_symmetric(self.quadratic, name="Q")
        lin = np.asarray(self.linear, dtype=float)
        if lin.ndim != 1 or lin.size != quad.shape[0]:
            raise ValueError(
                f"linear term must have length {quad.shape[0]}, got shape {lin.shape}"
            )
        if quad.diagonal().any():
            raise ValueError("Q diagonal must be zero; use from_matrices to fold it")
        object.__setattr__(self, "quadratic", quad)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "offset", float(self.offset))

    @classmethod
    def from_matrices(cls, quadratic, linear=None, offset: float = 0.0) -> "QuboModel":
        """Build a model from possibly asymmetric / diagonal-carrying data."""
        quad = np.asarray(quadratic, dtype=float)
        if quad.ndim != 2 or quad.shape[0] != quad.shape[1]:
            raise ValueError(f"Q must be square, got shape {quad.shape}")
        quad = _symmetrize(quad)
        diag = np.diag(quad).copy()
        np.fill_diagonal(quad, 0.0)
        n = quad.shape[0]
        lin = np.zeros(n) if linear is None else np.asarray(linear, dtype=float).copy()
        lin = lin + diag  # x_i^2 == x_i
        return cls(quad, lin, offset)

    @property
    def num_variables(self) -> int:
        """Number of binary variables."""
        return self.linear.size

    def energy(self, x) -> float:
        """Exact objective value for one binary assignment."""
        from repro.ising.energy import qubo_energy

        return qubo_energy(self, x)

    def to_ising(self) -> "IsingModel":
        """Exact conversion to spin variables via ``x = (1 + s) / 2``.

        For every binary ``x`` and its spin image ``s = 2x - 1`` the returned
        model satisfies ``IsingModel.energy(s) == QuboModel.energy(x)``.
        A thin wrapper over :func:`spin_terms`, the conversion
        :class:`repro.core.lagrangian.LagrangianIsing` also runs.
        """
        return IsingModel(*spin_terms(self.quadratic, self.linear, self.offset))

    def scaled(self, factor: float) -> "QuboModel":
        """Return the model with all coefficients multiplied by ``factor``."""
        return QuboModel(self.quadratic * factor, self.linear * factor, self.offset * factor)


@dataclass(frozen=True)
class IsingModel:
    """Ising Hamiltonian ``H(s) = -1/2 s^T J s - h^T s + offset``.

    ``J`` is symmetric with zero diagonal, so ``1/2 s^T J s`` equals the
    paper's ``sum_{i<j} J_ij s_i s_j``.
    """

    coupling: np.ndarray
    fields: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        coup = check_square_symmetric(self.coupling, name="J")
        h = np.asarray(self.fields, dtype=float)
        if h.ndim != 1 or h.size != coup.shape[0]:
            raise ValueError(
                f"fields must have length {coup.shape[0]}, got shape {h.shape}"
            )
        if coup.diagonal().any():
            raise ValueError("J diagonal must be zero")
        object.__setattr__(self, "coupling", coup)
        object.__setattr__(self, "fields", h)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def num_spins(self) -> int:
        """Number of Ising spins."""
        return self.fields.size

    @property
    def density(self) -> float:
        """Fraction of non-zero couplings among the ``N(N-1)/2`` pairs."""
        n = self.num_spins
        if n < 2:
            return 0.0
        nonzero = np.count_nonzero(np.triu(self.coupling, k=1))
        return 2.0 * nonzero / (n * (n - 1))

    def energy(self, spins) -> float:
        """Exact Hamiltonian value for one spin assignment."""
        from repro.ising.energy import ising_energy

        return ising_energy(self, spins)

    def to_qubo(self) -> QuboModel:
        """Exact conversion back to binary variables (inverse of ``to_ising``)."""
        coup = self.coupling
        h = self.fields
        quad = -2.0 * coup
        row_sums = coup.sum(axis=1)
        lin = 2.0 * row_sums - 2.0 * h  # derived from s = 2x - 1
        offset = self.offset - coup.sum() / 2.0 + h.sum()
        return QuboModel(quad, lin, offset)

    def with_fields(self, fields) -> "IsingModel":
        """Return a copy with replaced linear fields (couplings shared).

        SAIM only touches ``h`` when the Lagrange multipliers move, so the
        (large) coupling matrix is reused across iterations.
        """
        return IsingModel(self.coupling, np.asarray(fields, dtype=float), self.offset)
