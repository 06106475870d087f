"""Shared builders for the test suite."""

from __future__ import annotations

import base64

import numpy as np
import pytest

import repro
from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.ising.exhaustive import brute_force_ground_state
from repro.ising.model import IsingModel, QuboModel
from repro.problems.generators import generate_qkp
from repro.problems.io import array_from_json, problem_to_json
from repro.utils.rng import ensure_rng


def random_qubo(n: int, rng=None, density: float = 0.7) -> QuboModel:
    """Random dense-ish QUBO with coefficients in [-1, 1]."""
    rng = ensure_rng(rng)
    upper = np.triu(rng.uniform(-1, 1, size=(n, n)), k=1)
    upper *= np.triu(rng.uniform(0, 1, size=(n, n)) < density, k=1)
    quad = upper + upper.T
    linear = rng.uniform(-1, 1, size=n)
    return QuboModel(quad, linear, offset=float(rng.uniform(-1, 1)))


def random_ising(n: int, rng=None, density: float = 0.7) -> IsingModel:
    """Random dense-ish Ising model with coefficients in [-1, 1]."""
    rng = ensure_rng(rng)
    upper = np.triu(rng.uniform(-1, 1, size=(n, n)), k=1)
    upper *= np.triu(rng.uniform(0, 1, size=(n, n)) < density, k=1)
    coupling = upper + upper.T
    fields = rng.uniform(-1, 1, size=n)
    return IsingModel(coupling, fields, offset=float(rng.uniform(-1, 1)))


def all_binary_vectors(n: int) -> np.ndarray:
    """Every 0/1 vector of length n, as an array of shape (2**n, n)."""
    codes = np.arange(2**n, dtype=np.int64)
    return ((codes[:, None] >> np.arange(n)) & 1).astype(np.int8)


def tiny_constrained_problem() -> ConstrainedProblem:
    """3-variable problem with one equality, solvable by hand.

    minimize  -x0 - 2 x1 - 3 x2   s.t.  x0 + x1 + x2 = 2
    Optimal: x = (0, 1, 1), objective -5.
    """
    n = 3
    return ConstrainedProblem(
        quadratic=np.zeros((n, n)),
        linear=np.array([-1.0, -2.0, -3.0]),
        equalities=LinearConstraints(np.ones((1, n)), np.array([2.0])),
        name="tiny-eq",
    )


def dual_value(lagrangian, lambdas) -> float:
    """Exact ``q(lambda) = min_x L(x; lambda)`` by enumeration (small N)."""
    _, value = brute_force_ground_state(lagrangian.ising_for(lambdas))
    return value


def tiny_knapsack_problem() -> ConstrainedProblem:
    """3-variable knapsack with one inequality, solvable by hand.

    minimize  -3 x0 - 4 x1 - 5 x2   s.t.  2 x0 + 3 x1 + 4 x2 <= 6
    Optimal: x = (1, 0, 1), objective -8.
    """
    n = 3
    return ConstrainedProblem(
        quadratic=np.zeros((n, n)),
        linear=np.array([-3.0, -4.0, -5.0]),
        inequalities=LinearConstraints(
            np.array([[2.0, 3.0, 4.0]]), np.array([6.0])
        ),
        name="tiny-knap",
    )


def integer_ising(n: int, rng=None) -> IsingModel:
    """Random Ising model with small integer coefficients.

    Every partial sum of its inputs and energies is exact in float32 and
    float64, whatever the summation order.
    """
    rng = ensure_rng(rng)
    upper = np.triu(rng.integers(-3, 4, size=(n, n)).astype(float), k=1)
    fields = rng.integers(-3, 4, size=n).astype(float)
    return IsingModel(upper + upper.T, fields, offset=float(rng.integers(-3, 4)))


def sweep_kernel() -> str:
    """The p-bit sweep kernel this process runs: "compiled" or "numpy"."""
    from repro.ising import _native

    return "numpy" if _native.sweep_library() is None else "compiled"


#: Builder options that move a registered backend off its default code
#: path: the p-bit kernels' pure-python ``R = 1`` scan, and the chromatic
#: machine's CSR rows (its default picks dense rows for the dense-ish
#: models the contract suites build).
BACKEND_VARIANTS = {
    "pbit": ({"kernel": "serial"},),
    "quantized": ({"kernel": "serial"},),
    "chromatic": ({"storage": "csr"},),
}


def backend_configs() -> list:
    """``(name, options)`` parameters for the backend contract suites.

    Every registered backend at its default options, with the backend name
    as its id, then every entry of :data:`BACKEND_VARIANTS`, with an id
    like ``pbit-serial``.
    """
    configs = [pytest.param(name, {}, id=name)
               for name in repro.available_backends()]
    for name, variants in BACKEND_VARIANTS.items():
        for options in variants:
            label = "-".join(str(value) for value in options.values())
            configs.append(pytest.param(name, options, id=f"{name}-{label}"))
    return configs


def list_spelled(envelope: dict) -> dict:
    """An array envelope with its ``data`` as nested lists of values, the
    spelling hand-written bodies send."""
    return {"dtype": envelope["dtype"], "shape": envelope["shape"],
            "data": array_from_json(envelope).tolist()}


#: QKP-6 ``weights`` envelopes the wire refuses, each with a fragment of
#: the refusal: values their dtype does not hold as given, dtypes that do
#: not travel, shapes that are not lists of non-negative integers, and
#: base64 bytes that are the wrong length or not finite.
BAD_WEIGHT_ENVELOPES = {
    "int8-overflow": ({"dtype": "int8", "shape": [6],
                       "data": [1000, 1, 1, 1, 1, 1]}, "must lie in"),
    "uint8-negative": ({"dtype": "uint8", "shape": [6],
                        "data": [-1, 1, 1, 1, 1, 1]}, "must lie in"),
    "int64-overflow": ({"dtype": "int64", "shape": [6],
                        "data": [2**70, 1, 1, 1, 1, 1]}, "must lie in"),
    "int8-fractions": ({"dtype": "int8", "shape": [6],
                        "data": [0.7, 1.2, 1, 1, 1, 1]}, "must be integers"),
    "float32-to-inf": ({"dtype": "float32", "shape": [6],
                        "data": [1e300, 1, 1, 1, 1, 1]}, "non-finite"),
    "complex128": ({"dtype": "complex128", "shape": [6],
                    "data": [1, 1, 1, 1, 1, 1]}, "does not travel"),
    "object": ({"dtype": "object", "shape": [6],
                "data": [1, 1, 1, 1, 1, 1]}, "does not travel"),
    "string-values": ({"dtype": "float64", "shape": [6],
                       "data": ["1", "1", "1", "1", "1", "1"]},
                      "must be numbers"),
    "fractional-shape": ({"dtype": "float64", "shape": [6.5],
                          "data": [1, 1, 1, 1, 1, 1]}, "shape must be"),
    "inferred-shape": ({"dtype": "float64", "shape": [-1],
                        "data": [1, 1, 1, 1, 1, 1]}, "shape must be"),
    "base64-short": ({"dtype": "float64", "shape": [6],
                      "data": base64.b64encode(np.ones(5)).decode()},
                     "bytes"),
    "base64-excess-padding": ({"dtype": "float64", "shape": [6],
                               "data": base64.b64encode(np.ones(6)).decode()
                               + "="}, "strict base64"),
    "base64-nan": ({"dtype": "float64", "shape": [6],
                    "data": base64.b64encode(
                        np.array([np.nan, 1, 1, 1, 1, 1], "<f8")).decode()},
                   "non-finite"),
    "base64-bool-2": ({"dtype": "bool", "shape": [6],
                       "data": base64.b64encode(bytes([1, 1, 1, 1, 1, 2])).decode()},
                      "0 or 1"),
}


def qkp6_with_weights(envelope: dict) -> dict:
    """A QKP-6 problem payload whose ``weights`` envelope is ``envelope``."""
    payload = problem_to_json(generate_qkp(6, 0.5, rng=4))
    payload["weights"] = envelope
    return payload
