"""Argument validation shared across the library.

Solvers validate inputs once at their public boundary and use plain numpy
inside hot loops; these helpers keep the error messages uniform.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def check_binary_vector(x, n: int | None = None, name: str = "x") -> np.ndarray:
    """Return ``x`` as an int8 0/1 vector, raising on anything else."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if n is not None and arr.size != n:
        raise ValueError(f"{name} must have length {n}, got {arr.size}")
    values = np.unique(arr)
    if not np.all(np.isin(values, (0, 1))):
        raise ValueError(f"{name} must be binary (0/1), found values {values[:5]}")
    return arr.astype(np.int8)


def check_square_symmetric(matrix, name: str = "J", atol: float = 1e-9) -> np.ndarray:
    """Return ``matrix`` as a float array, verifying it is square symmetric."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    # The exact compare settles every matrix the library builds itself;
    # only a matrix that misses it pays for the tolerant scan.
    if not (np.array_equal(arr, arr.T) or np.allclose(arr, arr.T, atol=atol)):
        raise ValueError(f"{name} must be symmetric")
    return arr


def check_finite(values, name: str) -> None:
    """Raise unless every entry of ``values`` is finite (no NaN or inf)."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite (no NaN or infinity)")


def check_finite_scalar(value, name: str) -> float:
    """Return ``value`` as a float, raising unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite (no NaN or infinity)")
    return value


def check_integer(value, name: str, minimum: int) -> None:
    """Raise unless ``value`` is an integer >= ``minimum``.

    A ``bool`` is not an integer here, and neither is a float or a string
    that holds a whole number; a numpy integer is.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_positive(value: float, name: str) -> float:
    """Raise unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Raise unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return float(value)
