"""The exact dual function ``q(lambda) = min_x L(x; lambda)``.

Computed by enumeration, ``brute_force_ground_state(lagrangian.ising_for(
lambda))``, the call the Fig. 2 bench and ``examples/toy_lagrange.py`` make.
"""

import numpy as np
import pytest

from repro.core.lagrangian import LagrangianIsing
from tests.helpers import dual_value, tiny_constrained_problem

OPT = -5.0  # optimum of tiny_constrained_problem


@pytest.fixture
def lagrangian():
    return LagrangianIsing(tiny_constrained_problem(), penalty=0.1)


class TestDualValue:
    def test_weak_duality_everywhere(self, lagrangian):
        for lam in np.linspace(-10, 10, 21):
            assert dual_value(lagrangian, np.array([lam])) <= OPT + 1e-9

    def test_concavity_on_grid(self, lagrangian):
        grid = np.linspace(-4, 4, 33)
        values = [dual_value(lagrangian, np.array([lam])) for lam in grid]
        second_diff = np.diff(values, 2)
        assert np.all(second_diff <= 1e-9)
