"""PerfModel: config keys, fitting, persistence, and the fallback ladder."""

import json

import numpy as np
import pytest

from repro.planner.model import (
    BASIS,
    MODEL_VERSION,
    PerfModel,
    bootstrap_model,
    config_key,
    default_model_path,
    fit_weights,
    load_default_model,
    load_model,
)
from repro.planner.tunables import AUTO_FUSED_MAX_VARIABLES


class TestConfigKey:
    def test_kernel_spelling(self):
        assert config_key("pbit", kernel="lockstep") == "pbit:lockstep:float64"

    def test_storage_spelling(self):
        assert (config_key("chromatic", storage="csr", dtype="float32")
                == "chromatic:csr:float32")

    def test_no_variant(self):
        assert config_key("higher_order") == "higher_order::float64"

    def test_kernel_and_storage_is_an_error(self):
        with pytest.raises(ValueError, match="not both"):
            config_key("pbit", kernel="lockstep", storage="csr")


class TestFitAndPredict:
    def test_fit_recovers_planted_surface(self):
        planted = np.array([1e-5, 2e-7, 3e-8, 4e-9, 5e-10])

        def seconds(n, r, terms):
            return float(planted @ np.array([1.0, n, n * r, terms, terms * r]))

        rows = [
            (n, r, terms, seconds(n, r, terms))
            for n in (16, 32, 64, 128)
            for r in (1, 4, 16)
            # terms must vary independently of n or the surface is not
            # identifiable (sparse ~3n vs dense ~n^2/2 coupling counts).
            for terms in (3 * n, n * (n - 1) // 2)
        ]
        model = PerfModel({"pbit:lockstep:float64": fit_weights(rows)})
        # Held-out shape: the fitted surface reproduces the planted one.
        predicted = model.predict_sweep_seconds(
            "pbit:lockstep:float64", n=96, r=8, terms=400)
        assert predicted == pytest.approx(seconds(96, 8, 400), rel=1e-6)

    def test_fit_weights_are_non_negative(self):
        """Noisy timings whose least-squares slope in ``n`` is negative:
        the fit must not extrapolate to the prediction floor at a larger
        size (a floored config would beat every real one)."""
        rows = [(n, 1, n, seconds) for n, seconds in
                ((10, 3.0e-4), (20, 1.0e-4), (40, 1.2e-4), (80, 0.5e-4))]
        matrix = np.array([[1.0, n, n, n, n] for n, *_ in rows])
        target = np.array([row[3] for row in rows])
        least_squares, *_ = np.linalg.lstsq(matrix, target, rcond=None)
        assert least_squares[1:].sum() < 0  # the unconstrained slope
        weights = fit_weights(rows)
        assert min(weights) >= 0.0
        model = PerfModel({"pbit:lockstep:float64": weights})
        assert model.predict_sweep_seconds(
            "pbit:lockstep:float64", n=1000, r=1, terms=1000) > 1e-6

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            fit_weights([])

    def test_predict_scales_with_sweeps_and_floors(self):
        model = PerfModel({"pbit:lockstep:float64": [1e-6, 0, 0, 0, 0],
                           "pbit:serial:float64": [-1.0, 0, 0, 0, 0]})
        fast = model.predict_solve_seconds(
            "pbit:lockstep:float64", n=10, r=1, terms=10, num_sweeps=100)
        assert fast == pytest.approx(1e-4)
        # A degenerate fit can never predict a non-positive time.
        floored = model.predict_solve_seconds(
            "pbit:serial:float64", n=10, r=1, terms=10, num_sweeps=100)
        assert floored > 0

    def test_unknown_key_prices_as_none(self):
        model = PerfModel({})
        assert not model.covers("pbit:lockstep:float64")
        assert model.predict_solve_seconds(
            "pbit:lockstep:float64", n=1, r=1, terms=1, num_sweeps=1) is None

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(ValueError, match="expected 5"):
            PerfModel({"pbit:lockstep:float64": [1.0, 2.0]})


class TestPersistence:
    def _model(self):
        return PerfModel(
            {"chromatic:csr:float64": [1e-5, 2e-7, 3e-8, 4e-9, 5e-10]},
            tunables={"fused_max_variables": 96},
            host={"cpu_count": 4},
            source="calibration",
        )

    def test_json_round_trip(self):
        model = self._model()
        clone = PerfModel.from_json(model.to_json())
        assert clone.configs == model.configs
        assert clone.tunables == model.tunables
        assert clone.source == "calibration"
        assert clone.fused_max_variables() == 96

    def test_version_mismatch_raises(self):
        payload = self._model().to_json()
        payload["version"] = MODEL_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            PerfModel.from_json(payload)

    def test_basis_mismatch_raises(self):
        payload = self._model().to_json()
        payload["basis"] = ["const", "n"]
        with pytest.raises(ValueError, match="basis"):
            PerfModel.from_json(payload)

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "perf_model.json"
        saved_to = self._model().save(path)
        assert saved_to == path
        payload = json.loads(path.read_text())
        assert payload["version"] == MODEL_VERSION
        assert payload["basis"] == list(BASIS)
        assert load_model(path).covers("chromatic:csr:float64")

    def test_fused_cap_falls_back_to_pinned_tunable(self):
        model = PerfModel({})
        assert model.fused_max_variables() == AUTO_FUSED_MAX_VARIABLES


class TestDefaultModelLadder:
    def test_empty_env_disables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_MODEL", "")
        assert default_model_path() is None
        assert load_default_model() is None

    def test_env_path_override(self, monkeypatch, tmp_path):
        path = tmp_path / "override.json"
        PerfModel({"pbit:lockstep:float64": [1e-6, 0, 0, 0, 0]}).save(path)
        monkeypatch.setenv("REPRO_PERF_MODEL", str(path))
        assert default_model_path() == path
        model = load_default_model()
        assert model is not None and model.covers("pbit:lockstep:float64")

    def test_missing_file_degrades_to_none(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PERF_MODEL", str(tmp_path / "absent.json"))
        assert load_default_model() is None

    def test_corrupt_file_degrades_to_none(self, monkeypatch, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        monkeypatch.setenv("REPRO_PERF_MODEL", str(path))
        assert load_default_model() is None


class TestBootstrap:
    def test_bootstrap_from_committed_grids(self):
        # The repo root carries the committed BENCH grids the portable
        # prior is fitted from.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        model = bootstrap_model(root)
        assert model is not None
        assert model.source == "bootstrap"
        assert model.covers("pbit:lockstep:float64")
        assert model.covers("chromatic:csr:float64")
        assert model.covers("higher_order::float64")
        seconds = model.predict_solve_seconds(
            "pbit:lockstep:float64", n=64, r=16, terms=2016, num_sweeps=1000)
        assert seconds > 0

    def test_bootstrap_empty_dir_is_none(self, tmp_path):
        assert bootstrap_model(tmp_path) is None
