"""Fixed-point coefficient quantization for digital Ising machines.

Hardware IMs store couplings with finite precision: Fujitsu's Digital
Annealer uses 16-64 bit integers, FPGA p-bit machines often just a few bits
[10].  SAIM continuously *reprograms* the linear fields, so quantization is
the reproduction's proxy for asking whether the algorithm survives on real
digital hardware.  ``quantize_ising`` rounds a model onto a signed n-bit
integer grid (returning float values on that grid), and
``QuantizedPBitMachine`` wraps a p-bit machine whose reprogrammed fields are
re-quantized on every update — the precision ablation benchmark sweeps the
bit width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ising.model import IsingModel
from repro.ising.pbit import PBitMachine
from repro.utils.validation import check_integer


@dataclass(frozen=True)
class QuantizationSpec:
    """A symmetric signed fixed-point grid.

    ``bits`` total bits including sign; values are scaled so the largest
    magnitude maps to the largest representable integer ``2**(bits-1) - 1``.
    """

    bits: int

    def __post_init__(self):
        check_integer(self.bits, "bits", 2)  # a sign bit and a magnitude

    @property
    def levels(self) -> int:
        """Largest representable positive integer."""
        return 2 ** (self.bits - 1) - 1

    def quantize(self, values: np.ndarray, scale: float | None = None) -> np.ndarray:
        """Round ``values`` to the grid; returns floats lying on the grid.

        ``scale`` is the full-scale magnitude (defaults to ``max|values|``).
        """
        values = np.asarray(values, dtype=float)
        if scale is None:
            scale = float(np.max(np.abs(values))) if values.size else 0.0
        if scale == 0.0:
            return np.zeros_like(values)
        step = scale / self.levels
        return np.clip(np.round(values / step), -self.levels, self.levels) * step


def quantize_ising(model: IsingModel, bits: int) -> IsingModel:
    """Quantize couplings and fields onto a shared n-bit grid.

    A shared full scale (the largest magnitude among J and h) keeps the
    *relative* strength of couplings and fields intact, as a digital IM
    with one global coefficient format would.
    """
    spec = QuantizationSpec(bits)
    full_scale = max(
        float(np.max(np.abs(model.coupling))) if model.coupling.size else 0.0,
        float(np.max(np.abs(model.fields))) if model.fields.size else 0.0,
    )
    coupling = spec.quantize(model.coupling, scale=full_scale)
    fields = spec.quantize(model.fields, scale=full_scale)
    return IsingModel(coupling, fields, model.offset)


def quantization_error(model: IsingModel, bits: int) -> float:
    """Worst-case relative coefficient error introduced by ``bits``-bit
    quantization (0 means exact)."""
    quantized = quantize_ising(model, bits)
    scale = max(
        float(np.max(np.abs(model.coupling))) if model.coupling.size else 0.0,
        float(np.max(np.abs(model.fields))) if model.fields.size else 0.0,
    )
    if scale == 0.0:
        return 0.0
    coupling_err = float(np.max(np.abs(quantized.coupling - model.coupling)))
    field_err = float(np.max(np.abs(quantized.fields - model.fields)))
    return max(coupling_err, field_err) / scale


class QuantizedPBitMachine(PBitMachine):
    """A p-bit machine whose programmable coefficients live on an n-bit grid.

    The coupling matrix is quantized once at construction (hardware burns it
    into the crossbar / LUTs); every ``set_fields`` call re-quantizes the new
    fields with the same full scale, emulating SAIM reprogramming a digital
    IM between iterations.  Inherits the full
    :class:`repro.ising.backend.AnnealingBackend` protocol — including the
    vectorized ``anneal_many`` replica kernel — from :class:`PBitMachine`;
    quantization happens entirely at programming time, so the batched path
    samples the quantized Hamiltonian exactly like the serial one.
    """

    def __init__(self, model: IsingModel, bits: int, rng=None, dtype=None,
                 kernel: str = "lockstep"):
        self._spec = QuantizationSpec(bits)
        self._full_scale = max(
            float(np.max(np.abs(model.coupling))) if model.coupling.size else 0.0,
            float(np.max(np.abs(model.fields))) if model.fields.size else 0.0,
        )
        if self._full_scale == 0.0:
            self._full_scale = 1.0
        super().__init__(
            quantize_ising(model, bits), rng=rng, dtype=dtype, kernel=kernel
        )

    @property
    def bits(self) -> int:
        """Coefficient word length in bits."""
        return self._spec.bits

    def set_fields(self, fields, offset: float | None = None) -> None:
        """Reprogram fields, snapping them onto the machine's grid.

        Fields exceeding the original full scale saturate, exactly as a
        fixed-format digital IM would clip them.
        """
        quantized = self._spec.quantize(
            np.asarray(fields, dtype=float), scale=self._full_scale
        )
        super().set_fields(quantized, offset)
