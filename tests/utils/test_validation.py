"""Tests for repro.utils.validation."""

import numpy as np
import pytest

import repro
from repro.core.problem import ConstrainedProblem
from repro.ising.model import IsingModel, QuboModel
from repro.problems.generators import generate_qkp
from repro.problems.qkp import QkpInstance
from repro.utils.validation import (
    check_binary_vector,
    check_finite,
    check_non_negative,
    check_positive,
    check_square_symmetric,
)


class TestBinaryVector:
    def test_accepts_zeros_and_ones(self):
        out = check_binary_vector([0, 1, 1, 0])
        assert out.dtype == np.int8

    def test_rejects_twos(self):
        with pytest.raises(ValueError, match="binary"):
            check_binary_vector([0, 1, 2])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            check_binary_vector([0, 1], n=3)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            check_binary_vector(np.zeros((2, 2)))

    def test_accepts_all_zeros(self):
        assert check_binary_vector(np.zeros(4)).sum() == 0

    def test_accepts_bool_array(self):
        out = check_binary_vector(np.array([True, False]))
        np.testing.assert_array_equal(out, [1, 0])


class TestSquareSymmetric:
    def test_accepts_symmetric(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(check_square_symmetric(m), m)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square_symmetric(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_square_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))


def near_symmetric(n: int = 5) -> np.ndarray:
    """Symmetric with a zero diagonal, but for one pair off by 1e-12."""
    rng = np.random.default_rng(0)
    matrix = rng.random((n, n))
    matrix = matrix + matrix.T
    np.fill_diagonal(matrix, 0.0)
    matrix[0, 1] += 1e-12
    return matrix


class TestSymmetryWithinTolerance:
    """The exact compare only settles the common case first: a matrix that
    is symmetric within tolerance is accepted as before."""

    def test_check_square_symmetric(self):
        matrix = near_symmetric()
        assert not np.array_equal(matrix, matrix.T)
        np.testing.assert_array_equal(check_square_symmetric(matrix), matrix)

    @pytest.mark.parametrize("build", [
        lambda m: QkpInstance(np.ones(len(m)), m, np.ones(len(m)), 2.0),
        lambda m: ConstrainedProblem(m, np.zeros(len(m))),
        lambda m: QuboModel(m, np.zeros(len(m))),
        lambda m: IsingModel(m, np.zeros(len(m))),
    ], ids=["QkpInstance", "ConstrainedProblem", "QuboModel", "IsingModel"])
    def test_constructors_accept(self, build):
        build(near_symmetric())

    def test_no_tolerant_scan_in_a_qkp_solve(self, monkeypatch):
        """Every matrix a QKP solve derives (its problem, the slack
        encoding, the normalized problem, the QUBO and the Ising model)
        is exactly symmetric, so no check falls back to np.allclose."""
        instance = generate_qkp(40, 0.5, rng=1)
        calls = []
        allclose = np.allclose

        def counting_allclose(*args, **kwargs):
            calls.append(args[0].shape)
            return allclose(*args, **kwargs)

        monkeypatch.setattr(np, "allclose", counting_allclose)
        repro.solve(instance, rng=1, num_iterations=3, mcs_per_run=10)
        assert calls == []


class TestScalars:
    def test_positive_ok(self):
        assert check_positive(2.0, "p") == 2.0

    def test_zero_not_positive(self):
        with pytest.raises(ValueError):
            check_positive(0.0, "p")

    def test_non_negative_accepts_zero(self):
        assert check_non_negative(0.0, "p") == 0.0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "p")


class TestFinite:
    def test_accepts_finite_values(self):
        check_finite(np.array([[0.0, -1e300], [1e300, 2.5]]), "J")
        check_finite(3.0, "beta")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        values = np.ones((3, 3))
        values[1, 2] = bad
        with pytest.raises(ValueError, match="J must be finite"):
            check_finite(values, "J")
