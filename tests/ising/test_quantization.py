"""Tests for fixed-point quantization (repro.ising.quantization)."""

import numpy as np
import pytest

from repro.core.schedule import linear_beta_schedule
from repro.ising.exhaustive import brute_force_ground_state
from repro.ising.model import IsingModel
from repro.ising.quantization import (
    QuantizationSpec,
    QuantizedPBitMachine,
    quantization_error,
    quantize_ising,
)
from tests.helpers import random_ising


class TestQuantizationSpec:
    def test_levels(self):
        assert QuantizationSpec(4).levels == 7
        assert QuantizationSpec(8).levels == 127

    def test_rejects_too_few_bits(self):
        with pytest.raises(ValueError):
            QuantizationSpec(1)

    @pytest.mark.parametrize("bits", [2.5, 8.0, True, "8", None])
    def test_rejects_non_integer_bits(self, bits):
        """A fractional bit count would quantize onto 2**(bits-1) - 1
        levels, a non-integer grid."""
        with pytest.raises(ValueError, match="bits"):
            QuantizationSpec(bits)

    def test_numpy_integer_bits(self):
        assert QuantizationSpec(np.int64(8)).levels == 127

    def test_quantize_is_idempotent(self):
        spec = QuantizationSpec(5)
        values = np.array([0.3, -0.7, 1.0, 0.0])
        once = spec.quantize(values)
        np.testing.assert_allclose(spec.quantize(once, scale=1.0), once)

    def test_full_scale_preserved(self):
        spec = QuantizationSpec(6)
        values = np.array([-2.0, 1.0, 0.5])
        quantized = spec.quantize(values)
        assert quantized.min() == pytest.approx(-2.0)

    def test_zero_input(self):
        spec = QuantizationSpec(4)
        np.testing.assert_array_equal(spec.quantize(np.zeros(3)), np.zeros(3))

    def test_saturation(self):
        spec = QuantizationSpec(4)
        out = spec.quantize(np.array([10.0, -10.0]), scale=1.0)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(-1.0)


class TestQuantizeIsing:
    def test_error_decreases_with_bits(self):
        model = random_ising(10, rng=0)
        errors = [quantization_error(model, bits) for bits in (2, 4, 8, 16)]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_high_precision_is_nearly_exact(self):
        model = random_ising(8, rng=1)
        assert quantization_error(model, 24) < 1e-6

    def test_model_structure_preserved(self):
        model = random_ising(8, rng=2)
        quantized = quantize_ising(model, 8)
        assert quantized.num_spins == model.num_spins
        np.testing.assert_allclose(quantized.coupling, quantized.coupling.T)
        assert np.all(np.diag(quantized.coupling) == 0)

    def test_ground_state_survives_moderate_quantization(self):
        # With a non-degenerate spectrum, 12 bits keep the ground state.
        model = random_ising(8, rng=3)
        _, exact = brute_force_ground_state(model)
        _, quantized_ground = brute_force_ground_state(quantize_ising(model, 12))
        assert quantized_ground == pytest.approx(exact, rel=1e-2)


class TestQuantizedPBitMachine:
    def test_bits_property(self):
        machine = QuantizedPBitMachine(random_ising(6, rng=0), bits=6)
        assert machine.bits == 6

    def test_finds_ground_state_at_8_bits(self):
        model = random_ising(10, rng=4)
        _, ground = brute_force_ground_state(model)
        machine = QuantizedPBitMachine(model, bits=8, rng=0)
        best = min(
            machine.anneal(linear_beta_schedule(8.0, 300)).best_energy
            for _ in range(5)
        )
        # The machine optimizes the quantized Hamiltonian; evaluate its
        # answer on the exact model for comparison.
        assert best <= ground + 0.05 * abs(ground)

    def test_set_fields_saturates(self):
        model = IsingModel(np.zeros((3, 3)), np.array([1.0, -1.0, 0.5]))
        machine = QuantizedPBitMachine(model, bits=4, rng=0)
        machine.set_fields(np.array([100.0, -100.0, 0.0]))
        fields = machine.model.fields
        assert fields[0] == pytest.approx(1.0)  # clipped to full scale
        assert fields[1] == pytest.approx(-1.0)

    def test_reprogrammed_fields_live_on_grid(self):
        model = random_ising(5, rng=5)
        machine = QuantizedPBitMachine(model, bits=4, rng=0)
        machine.set_fields(np.array([0.123, -0.456, 0.789, 0.0, 0.321]))
        spec = QuantizationSpec(4)
        fields = machine.model.fields
        np.testing.assert_allclose(
            spec.quantize(fields, scale=machine._full_scale), fields, atol=1e-12
        )
