"""``SaimRun.advance`` pinned against the per-replica read-out.

The reference below is the read-out written one replica at a time: each
row is restricted to the original variables, checked against the
``violations``-based definition of feasibility, costed with ``objective``,
and the subgradient comes from ``lagrangian.residuals`` with the step
normalised by ``np.linalg.norm``.  The engine must match it bit for bit
on seeded batches — history, incumbent, feasible records and multipliers —
and every solution it keeps must own its ``(n0,)`` data.
"""

import numpy as np
import pytest

from repro.core.encoding import encode_with_slacks
from repro.core.engine import SaimRun
from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.core.saim import _ETA_DECAYS, SaimConfig
from repro.ising.backend import BatchAnnealResult
from repro.problems.generators import generate_mkp, generate_qkp

ITERATIONS = 12
TOL = 1e-9


def reference_feasible(problem, x, tol=TOL) -> bool:
    violations = problem.violations(x)
    return bool(violations.size == 0 or np.max(violations) <= tol)


class ReferenceRun:
    """The read-out of one replica at a time, with its own state."""

    def __init__(self, run: SaimRun):
        self.encoded = run.encoded
        self.lagrangian = run.lagrangian
        self.config = run.config
        self.replicas = run.num_replicas
        self.aggregate = run.aggregate
        self.lambdas = run.lambdas.copy()
        self.best_x, self.best_cost = None, np.inf
        self.records = []
        self.trace = dict(costs=[], energies=[], feasible=[], lambdas=[])
        self.outcomes = []  # every replica's feasibility, for coverage

    def advance(self, batch, k):
        config, encoded = self.config, self.encoded
        source = encoded.source
        if config.read_best:
            samples, energies = batch.best_samples, batch.best_energies
        else:
            samples, energies = batch.last_samples, batch.last_energies
        replicas = self.replicas
        xs_ext = ((np.asarray(samples) + 1) / 2).astype(np.int8)
        restricted = [encoded.restrict(xs_ext[r]) for r in range(replicas)]
        feasible = [reference_feasible(source, x) for x in restricted]
        self.outcomes += feasible
        costs = {}
        for r in range(replicas):
            if feasible[r]:
                costs[r] = source.objective(restricted[r])
                if costs[r] < self.best_cost:
                    self.best_cost, self.best_x = costs[r], restricted[r]
        mean = self.aggregate == "mean" and replicas > 1
        lead = int(np.argmin(energies)) if replicas > 1 and not mean else 0
        if feasible[lead]:
            cost_lead = costs[lead]
            self.records.append((k, restricted[lead], cost_lead))
        else:
            cost_lead = source.objective(restricted[lead])
        self.trace["lambdas"].append(self.lambdas)
        self.trace["costs"].append(cost_lead)
        self.trace["energies"].append(energies[lead])
        self.trace["feasible"].append(feasible[lead])
        if mean:
            residual = np.mean(
                [self.lagrangian.residuals(xs_ext[r]) for r in range(replicas)],
                axis=0,
            )
        else:
            residual = self.lagrangian.residuals(xs_ext[lead])
        step = config.eta * _ETA_DECAYS[config.eta_decay](k)
        direction = residual
        if config.normalize_step:
            norm = float(np.linalg.norm(residual))
            if norm > 1e-12:
                direction = residual / norm
        self.lambdas = self.lambdas + step * direction


def _bound_below(total, residual):
    """The bound ``b`` nearest to ``total - residual`` from above whose
    computed residual ``total - b`` is at most ``residual``."""
    bound = total - residual
    while total - bound > residual:
        bound = np.nextafter(bound, np.inf)
    return bound


def boundary_problem() -> tuple[ConstrainedProblem, list]:
    """Four inequality rows with non-integer weights on disjoint groups of
    four items, an equality row on a fifth group, and one sample per
    inequality row that meets the equality and lands on the row's
    boundary: exactly at the bound, three ulps over it, within an ulp
    under ``bound + TOL`` (all feasible) and one ulp past it (not)."""
    rng = np.random.default_rng(11)
    n = 20
    weights = np.zeros((5, n))
    for row in range(5):
        weights[row, 4 * row:4 * row + 4] = rng.uniform(0.3, 2.7, 4)
    samples = []
    for row in range(4):
        x = np.zeros(n)
        x[4 * row:4 * row + 3] = 1.0
        x[16:18] = 1.0
        samples.append(x)
    sums = [(weights @ x)[row] for row, x in enumerate(samples)]
    ulps_over = sums[1]
    for _ in range(3):
        ulps_over = np.nextafter(ulps_over, -np.inf)
    at_tol = _bound_below(sums[2], TOL)
    past_tol = np.nextafter(_bound_below(sums[3], TOL), -np.inf)
    quad = rng.normal(size=(n, n))
    quad = np.triu(quad, 1) + np.triu(quad, 1).T
    problem = ConstrainedProblem(
        quad, -rng.uniform(1.0, 5.0, n),
        equalities=LinearConstraints(weights[4], [(weights @ samples[0])[4]]),
        inequalities=LinearConstraints(
            weights[:4], [sums[0], ulps_over, at_tol, past_tol]
        ),
    )
    residuals = [
        problem.inequalities.residuals(x)[row]
        for row, x in enumerate(samples)
    ]
    assert residuals[0] == 0.0
    assert 0.0 < residuals[1] < 1e-12
    assert 1e-12 < residuals[2] <= TOL < residuals[3]
    assert all(problem.equalities.residuals(x)[0] == 0.0 for x in samples)
    return problem, samples


def make_problem(kind):
    """A problem and the samples planted in its batches."""
    if kind == "qkp":
        problem = generate_qkp(30, 0.5, rng=5).to_problem()
    elif kind == "mkp":
        problem = generate_mkp(25, 4, rng=6).to_problem()
    else:
        return boundary_problem()
    return problem, [np.ones(problem.num_variables)]


def seeded_batches(encoded, replicas, planted, seed):
    """``ITERATIONS`` batches whose best and last halves differ.

    Each replica's original bits come from a planted sample or from a
    random density (sparse ones tend to be feasible), its slack bits are
    random, and energies are random (ties broken by ``argmin``)."""
    rng = np.random.default_rng(seed)
    n = encoded.problem.num_variables
    n0 = encoded.num_original

    def samples():
        spins = np.where(rng.random((replicas, n)) < 0.5, -1.0, 1.0)
        for r in range(replicas):
            choice = rng.integers(len(planted) + 2)
            if choice < len(planted):
                x = planted[choice]
            else:
                x = rng.random(n0) < rng.uniform(0.0, 1.0)
            spins[r, :n0] = np.where(x, 1.0, -1.0)
        return spins

    return [
        BatchAnnealResult(
            last_samples=samples(), last_energies=rng.normal(size=replicas),
            best_samples=samples(), best_energies=rng.normal(size=replicas),
            num_sweeps=1,
        )
        for _ in range(ITERATIONS)
    ]


def assert_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_owns(x, n0):
    assert x.shape == (n0,) and x.dtype == np.int8
    assert x.base is None and x.flags.owndata


@pytest.mark.parametrize("read_best", [False, True])
@pytest.mark.parametrize("aggregate", ["best", "mean"])
@pytest.mark.parametrize("replicas", [1, 8, 32])
@pytest.mark.parametrize("kind", ["qkp", "mkp", "boundary"])
def test_advance_matches_the_per_replica_readout(kind, replicas, aggregate,
                                                 read_best):
    problem, planted = make_problem(kind)
    config = SaimConfig(num_iterations=ITERATIONS, mcs_per_run=5, eta=40.0,
                        eta_decay="sqrt", normalize_step=True,
                        read_best=read_best)
    encoded = encode_with_slacks(problem)
    run = SaimRun(encoded, config, replicas, aggregate)
    reference = ReferenceRun(run)
    batches = seeded_batches(encoded, replicas, planted, seed=replicas)
    for k, batch in enumerate(batches):
        run.program(k)
        assert run.advance(batch, k)
        reference.advance(batch, k)

    trace = reference.trace
    assert_bits(run.history.sample_costs, trace["costs"])
    assert_bits(run.history.energies, trace["energies"])
    assert_bits(run.history.feasible, trace["feasible"])
    assert_bits(run.history.lambdas, trace["lambdas"])
    assert_bits(run.lambdas, reference.lambdas)
    assert run.best_cost == reference.best_cost
    n0 = encoded.num_original
    if reference.best_x is None:
        assert run.best_x is None
    else:
        assert_owns(run.best_x, n0)
        assert_bits(run.best_x, reference.best_x)
    assert len(run.feasible_records) == len(reference.records)
    for record, (k, x, cost) in zip(run.feasible_records, reference.records):
        assert (record.iteration, record.cost) == (k, cost)
        assert_owns(record.x, n0)
        assert_bits(record.x, x)
    # The batches hold feasible and infeasible replicas alike.
    assert any(reference.outcomes) and not all(reference.outcomes)


def test_boundary_samples_are_decided_by_the_tolerance():
    problem, samples = boundary_problem()
    assert [problem.is_feasible(x) for x in samples] == [
        True, True, True, False
    ]


class TestBatchShape:
    """A batch that is not ``(R, n)`` samples and ``(R,)`` energies is
    refused, naming both shapes, before anything is read."""

    class _Batch:
        def __init__(self, samples, energies):
            self.last_samples = self.best_samples = samples
            self.last_energies = self.best_energies = energies

    def _run(self, replicas):
        problem = generate_qkp(8, 0.5, rng=2).to_problem()
        config = SaimConfig(num_iterations=2, mcs_per_run=5)
        run = SaimRun(encode_with_slacks(problem), config, replicas)
        return run, run.lagrangian.num_spins

    @pytest.mark.parametrize("replicas, got", [(2, 1), (1, 3)])
    def test_wrong_replica_count(self, replicas, got):
        run, n = self._run(replicas)
        energies = np.array([5.0, -9.0, 1.0][:got])
        batch = self._Batch(-np.ones((got, n)), energies)
        with pytest.raises(ValueError) as error:
            run.advance(batch, 0)
        message = str(error.value)
        assert f"({got}, {n})" in message and f"({replicas}, {n})" in message
        assert run.k_ran == 0 and not run.history.feasible.any()

    def test_wrong_spin_count(self):
        run, n = self._run(2)
        batch = self._Batch(-np.ones((2, n + 1)), np.zeros(2))
        with pytest.raises(ValueError, match=rf"\(2, {n + 1}\).*\(2, {n}\)"):
            run.advance(batch, 0)

    def test_wrong_energy_shape(self):
        run, n = self._run(2)
        batch = self._Batch(-np.ones((2, n)), np.zeros(3))
        with pytest.raises(ValueError, match=r"\(3,\).*\(2,\)"):
            run.advance(batch, 0)
