"""Property-based tests on the Ising/QUBO model layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.ising.energy import input_fields, ising_energy
from repro.ising.model import IsingModel, QuboModel
from repro.utils.validation import check_square_symmetric
from tests.helpers import random_ising, random_qubo

sizes = st.integers(min_value=1, max_value=10)
seeds = st.integers(min_value=0, max_value=10**6)


@st.composite
def qubo_and_x(draw):
    n = draw(sizes)
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    model = random_qubo(n, rng=rng)
    x = (rng.uniform(0, 1, size=n) < 0.5).astype(np.int8)
    return model, x


@st.composite
def ising_and_spins(draw):
    n = draw(sizes)
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    model = random_ising(n, rng=rng)
    spins = rng.choice([-1.0, 1.0], size=n)
    return model, spins


class TestConversionProperties:
    @given(qubo_and_x())
    @settings(max_examples=60, deadline=None)
    def test_qubo_ising_energy_equality(self, pair):
        """E_qubo(x) == H_ising(2x - 1) for every x (exact mapping)."""
        model, x = pair
        assert model.to_ising().energy(2.0 * x - 1.0) == pytest.approx(
            model.energy(x), rel=1e-9, abs=1e-9
        )

    @given(ising_and_spins())
    @settings(max_examples=60, deadline=None)
    def test_ising_qubo_energy_equality(self, pair):
        model, spins = pair
        x = ((spins + 1) / 2).astype(np.int8)
        assert model.to_qubo().energy(x) == pytest.approx(
            model.energy(spins), rel=1e-9, abs=1e-9
        )

    @given(seeds, sizes)
    @settings(max_examples=40, deadline=None)
    def test_double_roundtrip_fixed_point(self, seed, n):
        model = random_qubo(n, rng=seed)
        once = model.to_ising().to_qubo()
        twice = once.to_ising().to_qubo()
        np.testing.assert_allclose(once.quadratic, twice.quadratic, atol=1e-9)
        np.testing.assert_allclose(once.linear, twice.linear, atol=1e-9)


class TestEnergyProperties:
    @given(ising_and_spins())
    @settings(max_examples=60, deadline=None)
    def test_global_spin_flip_with_zero_fields(self, pair):
        """H(s) == H(-s) when h = 0 (Z2 symmetry of the Ising model)."""
        model, spins = pair
        symmetric = IsingModel(model.coupling, np.zeros(model.num_spins))
        assert ising_energy(symmetric, spins) == pytest.approx(
            ising_energy(symmetric, -spins), rel=1e-9, abs=1e-9
        )

    @given(ising_and_spins())
    @settings(max_examples=60, deadline=None)
    def test_flip_delta_antisymmetry(self, pair):
        """Flipping twice returns the original energy."""
        model, spins = pair
        i = 0
        fields = input_fields(model, spins)
        delta_forward = 2.0 * spins[i] * fields[i]
        flipped = spins.copy()
        flipped[i] = -flipped[i]
        fields_after = input_fields(model, flipped)
        delta_back = 2.0 * flipped[i] * fields_after[i]
        assert delta_forward == pytest.approx(-delta_back, rel=1e-9, abs=1e-9)

    @given(qubo_and_x(), st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_scaling_scales_energy(self, pair, factor):
        model, x = pair
        assert model.scaled(factor).energy(x) == pytest.approx(
            factor * model.energy(x), rel=1e-9, abs=1e-9
        )


# -- accept sets of the model constructors ----------------------------------
#
# Each reference predicate below restates, entry by entry in plain Python,
# the rule its constructor enforces; the property requires a ValueError
# exactly where the reference refuses.  The constructors read these checks
# in fewer numpy passes, and the property pins that none of that moved the
# accept set.

SPECIALS = (math.nan, math.inf, -math.inf)
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5]),
    st.floats(min_value=-1e3, max_value=1e3),
)


def _close(x, y, atol, rtol=1e-5) -> bool:
    """``np.isclose(x, y)`` for one pair of floats."""
    if math.isnan(x) or math.isnan(y):
        return False
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= atol + rtol * abs(y)


def ref_symmetric(m, atol) -> bool:
    """Square, and equal to its transpose exactly or within ``allclose``."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    pairs = [(float(m[i, j]), float(m[j, i]))
             for i in range(m.shape[0]) for j in range(m.shape[0])]
    return (all(x == y for x, y in pairs)
            or all(_close(x, y, atol) for x, y in pairs))


def ref_zero_diagonal(m) -> bool:
    return all(float(m[i, i]) == 0.0 for i in range(m.shape[0]))


def ref_model(m, vector) -> bool:
    """:class:`QuboModel` / :class:`IsingModel`: any offset is taken."""
    return (ref_symmetric(m, atol=1e-9) and vector.ndim == 1
            and vector.size == m.shape[0] and ref_zero_diagonal(m))


def ref_finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in np.ravel(values))


def ref_constraints(a, b) -> bool:
    return (np.atleast_2d(a).shape[0] == np.atleast_1d(b).size
            and ref_finite(a) and ref_finite(b))


def ref_problem(m, vector, offset, blocks) -> bool:
    """:class:`ConstrainedProblem` over already-built constraint blocks."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    n = m.shape[0]
    return (vector.ndim == 1 and vector.size == n
            and ref_finite(m) and ref_finite(vector)
            and math.isfinite(offset)
            and ref_symmetric(m, atol=1e-8) and ref_zero_diagonal(m)
            and all(np.atleast_2d(a).shape[1] == n for a, _ in blocks))


#: True about one draw in five (and False in the simplest example): each
#: input breaks rarely, so a draw that breaks one rule often keeps every
#: other.
RARELY = st.sampled_from([False, False, False, False, True])


#: How :func:`square_matrices` breaks a symmetric zero-diagonal matrix.
#: The ``near`` splits take a zero pair apart by 1e-12 (close under both
#: tolerances), 5e-9 (close only under the problems' atol of 1e-8) or
#: 5e-8 (close under neither).
BREAKAGES = ("none", "special", "mirrored-special", "asymmetry",
             "near-1e-12", "near-5e-9", "near-5e-8", "diagonal")


@st.composite
def square_matrices(draw, breakage, max_size=4):
    """A symmetric zero-diagonal matrix with one ``breakage``: an injected
    NaN / +-inf (one entry or a mirrored pair), exact asymmetry, a split
    inside or outside ``allclose``'s tolerances, or a nonzero or NaN
    diagonal entry."""
    low = 2 if breakage in ("asymmetry", "mirrored-special") or (
        breakage.startswith("near")) else 1
    n = draw(st.integers(min_value=0 if breakage == "none" else low,
                         max_value=max_size))
    upper = np.triu(draw(hnp.arrays(float, (n, n), elements=ENTRIES)), k=1)
    m = upper + upper.T
    if breakage == "none":
        return m
    i = draw(st.integers(min_value=0, max_value=n - 1))
    j = (i + draw(st.integers(min_value=1, max_value=max(1, n - 1)))) % n
    if breakage == "special":
        m[i, j] = draw(st.sampled_from(SPECIALS))
    elif breakage == "mirrored-special":
        m[i, j] = m[j, i] = draw(st.sampled_from(SPECIALS))
    elif breakage == "asymmetry":
        m[i, j] += draw(st.sampled_from([1.0, -3.0, 1e-3]))
    elif breakage.startswith("near"):
        m[j, i] = 0.0
        m[i, j] = float(breakage.split("-", 1)[1])
    else:
        m[i, i] = draw(st.sampled_from([1.0, -1e-300, math.nan, -0.0]))
    return m


@st.composite
def vectors(draw, size):
    """Length ``size`` (rarely one more), rarely with a NaN or infinity."""
    length = size + 1 if draw(RARELY) else size
    vector = draw(hnp.arrays(float, (length,), elements=ENTRIES))
    if length and draw(RARELY):
        vector[draw(st.integers(0, length - 1))] = draw(st.sampled_from(SPECIALS))
    return vector


@st.composite
def blocks(draw, num_variables):
    """``(A, b)`` with 0-2 rows, so empty or not; rarely a row-count or
    column-count mismatch, or a NaN or infinity in ``A`` or ``b``."""
    rows = draw(st.integers(min_value=0, max_value=2))
    cols = num_variables + 1 if draw(RARELY) else num_variables
    a = draw(hnp.arrays(float, (rows, cols), elements=ENTRIES))
    size = rows + 1 if draw(RARELY) else rows
    b = draw(hnp.arrays(float, (size,), elements=ENTRIES))
    for array in (a, b):
        if array.size and draw(RARELY):
            array.flat[draw(st.integers(0, array.size - 1))] = draw(
                st.sampled_from(SPECIALS))
    return a, b


@st.composite
def offsets(draw):
    if draw(RARELY):
        return draw(st.sampled_from(SPECIALS))
    return draw(st.sampled_from([0.0, -1.5, 0.25]))


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


class TestConstructorAcceptSets:
    @pytest.mark.parametrize("breakage", BREAKAGES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_models_and_symmetry_check(self, breakage, data):
        m = data.draw(square_matrices(breakage))
        vector = data.draw(vectors(m.shape[0]))
        offset = data.draw(offsets())
        assert _accepts(lambda: check_square_symmetric(m)) == ref_symmetric(
            m, atol=1e-9)
        expected = ref_model(m, vector)
        assert _accepts(lambda: QuboModel(m, vector, offset)) == expected
        assert _accepts(lambda: IsingModel(m, vector, offset)) == expected

    @given(n=st.integers(min_value=0, max_value=4), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_linear_constraints(self, n, data):
        a, b = data.draw(blocks(n))
        assert (_accepts(lambda: LinearConstraints(a, b))
                == ref_constraints(a, b))

    @pytest.mark.parametrize("breakage", BREAKAGES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_constrained_problem(self, breakage, data):
        m = data.draw(square_matrices(breakage))
        vector = data.draw(vectors(m.shape[0]))
        offset = data.draw(offsets())
        drawn = [data.draw(blocks(m.shape[0])) for _ in range(2)]
        drawn = [pair for pair in drawn if ref_constraints(*pair)]
        built = [LinearConstraints(a, b) for a, b in drawn]
        equalities, inequalities = (built + [None, None])[:2]
        assert _accepts(lambda: ConstrainedProblem(
            m, vector, offset, equalities, inequalities,
        )) == ref_problem(m, vector, offset, drawn)
