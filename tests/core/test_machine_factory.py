"""Tests for SAIM's pluggable-machine hook ("compatible with any IM")."""

import pytest

from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.ising.pbit import PBitMachine
from repro.ising.quantization import QuantizedPBitMachine
from repro.ising.sparse import ChromaticPBitMachine
from repro.problems.generators import generate_qkp
from tests.helpers import tiny_knapsack_problem

FAST = SaimConfig(num_iterations=30, mcs_per_run=120)


class TestSaimWithAlternativeMachines:
    def test_chromatic_machine_solves_knapsack(self):
        saim = SaimEngine(FAST, machine_factory=ChromaticPBitMachine)
        result = saim.solve(tiny_knapsack_problem(), rng=0)
        assert result.found_feasible
        assert result.best_cost == pytest.approx(-8.0)

    def test_quantized_machine_solves_knapsack(self):
        def factory(model, rng):
            return QuantizedPBitMachine(model, bits=12, rng=rng)

        saim = SaimEngine(FAST, machine_factory=factory)
        result = saim.solve(tiny_knapsack_problem(), rng=0)
        assert result.found_feasible
        assert result.best_cost == pytest.approx(-8.0)

    def test_pbit_and_chromatic_agree_on_qkp(self):
        instance = generate_qkp(15, 0.5, rng=4)
        config = SaimConfig(num_iterations=60, mcs_per_run=200,
                            eta=80.0, eta_decay="sqrt", normalize_step=True)
        pbit = SaimEngine(config).solve(instance.to_problem(), rng=2)
        chromatic = SaimEngine(
            config, machine_factory=ChromaticPBitMachine
        ).solve(instance.to_problem(), rng=2)
        assert pbit.found_feasible and chromatic.found_feasible
        # Two different machines on the same landscape: results within 10%.
        assert (abs(pbit.best_cost - chromatic.best_cost)
                <= 0.1 * abs(pbit.best_cost))

    def test_custom_machine_is_called(self):
        calls = {"constructed": 0, "reprogrammed": 0}

        class SpyMachine(PBitMachine):
            def __init__(self, model, rng=None):
                calls["constructed"] += 1
                super().__init__(model, rng)

            def set_fields(self, fields, offset=None):
                calls["reprogrammed"] += 1
                super().set_fields(fields, offset)

        config = SaimConfig(num_iterations=7, mcs_per_run=30)
        SaimEngine(config, machine_factory=SpyMachine).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert calls["constructed"] == 1
        assert calls["reprogrammed"] == 7  # once per iteration

    def test_default_factory_is_pbit(self):
        saim = SaimEngine(FAST)
        assert saim.machine_factory is PBitMachine

    def test_machine_without_anneal_many_is_refused(self):
        """A machine with only set_fields + anneal(schedule) — the contract
        the pre-engine docs promised — is refused before the first
        iteration, with an error that names the missing anneal_many."""

        class MinimalMachine:
            def __init__(self, model, rng=None):
                self._inner = PBitMachine(model, rng=rng)

            @property
            def num_spins(self):
                return self._inner.num_spins

            def set_fields(self, fields, offset=None):
                self._inner.set_fields(fields, offset)

            def anneal(self, beta_schedule):
                return self._inner.anneal(beta_schedule)

        saim = SaimEngine(FAST, machine_factory=MinimalMachine)
        with pytest.raises(ValueError, match="anneal_many"):
            saim.solve(tiny_knapsack_problem(), rng=0)
