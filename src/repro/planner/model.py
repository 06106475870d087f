"""The persisted perf model behind ``method="auto"``.

One :class:`PerfModel` maps a *machine configuration* (backend + kernel /
storage + dtype, spelled as a :func:`config_key` string) to a linear
cost surface over instance shape: predicted seconds per annealing sweep
``~ w . [1, n, n*r, terms, terms*r]`` where ``n`` is the variable count,
``r`` the replica batch width, and ``terms`` the nonzero coefficient
count.  Five weights per config are enough to rank configurations — the
planner needs an argmin, not a profiler.

Persistence is a versioned JSON file, by default
``~/.cache/repro/perf_model.json`` (override with the
``REPRO_PERF_MODEL`` environment variable — an empty value disables the
default model entirely, which is how the test suite stays hermetic).
Three provenances, forming the fallback ladder:

1. **calibration** — ``benchmarks/bench_autotune_calibrate.py`` times the
   real machines on this host and fits the weights (the honest model);
2. **bootstrap** — :func:`bootstrap_model` fits coarse weights offline
   from the committed ``BENCH_*.json`` grids (a portable prior);
3. **none** — no model file: the planner falls back to the pinned
   heuristics in :mod:`repro.planner.tunables` and today's front-door
   defaults, bit-identical to ``method="saim"``.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from repro.planner.tunables import AUTO_FUSED_MAX_VARIABLES

__all__ = [
    "MODEL_VERSION",
    "PerfModel",
    "bootstrap_model",
    "config_key",
    "default_model_path",
    "fit_weights",
    "load_default_model",
    "load_model",
]

MODEL_VERSION = 1

#: Basis features of the per-sweep cost surface, in weight order.
BASIS = ("const", "n", "n_r", "terms", "terms_r")

_MODEL_ENV = "REPRO_PERF_MODEL"
_PREDICTION_FLOOR = 1e-8


def config_key(backend: str, *, kernel: str | None = None,
               storage: str | None = None, dtype: str | None = None) -> str:
    """Canonical ``backend:variant:dtype`` spelling of one configuration.

    ``variant`` is the kernel for kernel-switched backends (pbit), the
    storage layout for the chromatic machine, and empty otherwise;
    ``dtype`` defaults to ``float64``.
    """
    if kernel is not None and storage is not None:
        raise ValueError("a config has a kernel or a storage, not both")
    variant = kernel if kernel is not None else (storage or "")
    return f"{backend}:{variant}:{dtype or 'float64'}"


def _basis_row(n: int, r: int, terms: int) -> np.ndarray:
    n, r, terms = float(n), float(r), float(terms)
    return np.array([1.0, n, n * r, terms, terms * r])


def fit_weights(samples) -> list[float]:
    """Non-negative least-squares weights from ``(n, r, terms,
    seconds_per_sweep)`` rows.

    Every basis feature can only add cost, so no weight may be negative:
    an unconstrained fit to noisy timings can give a config a negative
    slope, and its extrapolated prediction would then sit at the floor and
    beat every real config.  Predictions are still floored at call time,
    so an all-zero fit cannot return a non-positive time.
    """
    from scipy.optimize import nnls

    samples = list(samples)
    if not samples:
        raise ValueError("fit_weights needs at least one sample")
    matrix = np.stack([_basis_row(n, r, terms) for n, r, terms, _ in samples])
    target = np.array([float(seconds) for _, _, _, seconds in samples])
    weights, _ = nnls(matrix, target)
    return [float(w) for w in weights]


class PerfModel:
    """Persisted per-config cost surfaces plus host-calibrated tunables."""

    def __init__(self, configs: dict, *, tunables: dict | None = None,
                 host: dict | None = None, source: str = "calibration",
                 version: int = MODEL_VERSION):
        if int(version) != MODEL_VERSION:
            raise ValueError(
                f"perf model schema version {version} is not supported "
                f"(this build reads version {MODEL_VERSION})"
            )
        self.version = MODEL_VERSION
        self.source = str(source)
        self.host = dict(host or {})
        self.configs = {
            str(key): [float(w) for w in weights]
            for key, weights in configs.items()
        }
        for key, weights in self.configs.items():
            if len(weights) != len(BASIS):
                raise ValueError(
                    f"config {key!r} has {len(weights)} weights, "
                    f"expected {len(BASIS)} ({BASIS})"
                )
        self.tunables = {
            str(key): float(value)
            for key, value in (tunables or {}).items()
        }

    def covers(self, key: str) -> bool:
        """True when this model can price configuration ``key``."""
        return key in self.configs

    def predict_sweep_seconds(self, key: str, *, n: int, r: int,
                              terms: int) -> float | None:
        """Predicted wall seconds of ONE replica-batched sweep (or None)."""
        weights = self.configs.get(key)
        if weights is None:
            return None
        prediction = float(np.dot(weights, _basis_row(n, r, terms)))
        return max(prediction, _PREDICTION_FLOOR)

    def predict_solve_seconds(self, key: str, *, n: int, r: int, terms: int,
                              num_sweeps: int) -> float | None:
        """Predicted wall seconds of a solve running ``num_sweeps`` total
        replica-batched sweeps (iterations x MCS per run)."""
        per_sweep = self.predict_sweep_seconds(key, n=n, r=r, terms=terms)
        if per_sweep is None:
            return None
        return per_sweep * max(int(num_sweeps), 1)

    def fused_max_variables(self) -> int:
        """Host-calibrated fused-fleet size cap (pinned default absent)."""
        value = self.tunables.get("fused_max_variables")
        if value is None:
            return AUTO_FUSED_MAX_VARIABLES
        return max(0, int(value))

    # -- persistence -------------------------------------------------------

    def to_json(self) -> dict:
        """The versioned JSON schema (see the module docstring)."""
        return {
            "version": self.version,
            "source": self.source,
            "host": dict(self.host),
            "basis": list(BASIS),
            "configs": {key: list(w) for key, w in sorted(self.configs.items())},
            "tunables": dict(sorted(self.tunables.items())),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PerfModel":
        """Inverse of :meth:`to_json`; raises on schema mismatch."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"perf model payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        basis = payload.get("basis", list(BASIS))
        if list(basis) != list(BASIS):
            raise ValueError(
                f"perf model basis {basis} does not match this build's "
                f"{list(BASIS)}"
            )
        return cls(
            payload.get("configs", {}),
            tunables=payload.get("tunables"),
            host=payload.get("host"),
            source=payload.get("source", "calibration"),
            version=payload.get("version", -1),
        )

    def save(self, path=None) -> Path:
        """Write the model JSON (default: :func:`default_model_path`)."""
        path = Path(path) if path is not None else default_model_path()
        if path is None:
            raise ValueError(
                f"no model path: the default is disabled by {_MODEL_ENV}=''"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True)
                        + "\n")
        _DEFAULT_CACHE.clear()
        return path


def default_model_path() -> Path | None:
    """Where the host model lives; ``None`` when explicitly disabled."""
    override = os.environ.get(_MODEL_ENV)
    if override is not None:
        return Path(override) if override else None
    return Path.home() / ".cache" / "repro" / "perf_model.json"


def load_model(path) -> PerfModel:
    """Load a model from an explicit path; raises when missing/invalid."""
    payload = json.loads(Path(path).read_text())
    return PerfModel.from_json(payload)


_DEFAULT_CACHE: dict = {}


def load_default_model() -> PerfModel | None:
    """The host's persisted model, or ``None`` (heuristic fallback).

    Missing, disabled (``REPRO_PERF_MODEL=''``), or unreadable files all
    resolve to ``None`` — a corrupt cache file must degrade the plan, not
    the solve.  Loads are memoized per (path, mtime).
    """
    path = default_model_path()
    if path is None:
        return None
    try:
        mtime = path.stat().st_mtime_ns
    except OSError:
        return None
    key = (str(path), mtime)
    if key in _DEFAULT_CACHE:
        return _DEFAULT_CACHE[key]
    try:
        model = load_model(path)
    except (OSError, ValueError):
        model = None
    _DEFAULT_CACHE.clear()
    _DEFAULT_CACHE[key] = model
    return model


# --------------------------------------------------------------------------
# Offline bootstrap from the committed benchmark grids.

_KERNEL_CONFIGS = {
    "lockstep_dense": ("pbit", "lockstep", None),
    "chromatic_csr": ("chromatic", None, "csr"),
    "chromatic_dense": ("chromatic", None, "dense"),
}


def _bigr_samples(payload: dict) -> dict:
    """``BENCH_bigR_kernels.json`` records as per-config sample rows."""
    samples: dict[str, list] = {}
    for record in payload.get("records", []):
        mapped = _KERNEL_CONFIGS.get(record.get("kernel"))
        if mapped is None:
            continue
        backend, kernel, storage = mapped
        match = re.search(r"_n(\d+)", record.get("workload", ""))
        if match is None:
            continue
        n = int(match.group(1))
        # The grids do not archive per-workload coupling counts; dense
        # QKP workloads touch every pair, the sparse regular graphs ~3n.
        terms = (3 * n if record["workload"].startswith("sparse")
                 else n * (n - 1) // 2)
        key = config_key(backend, kernel=kernel, storage=storage,
                         dtype=record.get("dtype"))
        seconds_per_sweep = (
            float(record["seconds"]) / max(int(record["num_sweeps"]), 1)
        )
        samples.setdefault(key, []).append(
            (n, int(record["num_replicas"]), terms, seconds_per_sweep)
        )
    return samples


def _higher_order_samples(payload: dict) -> dict:
    """``BENCH_higher_order.json`` records as per-config sample rows."""
    samples: dict[str, list] = {}
    key = config_key("higher_order")
    for record in payload.get("records", []):
        seconds_per_sweep = (
            float(record["batched_seconds"]) / max(int(record["num_sweeps"]), 1)
        )
        samples.setdefault(key, []).append((
            int(record["num_spins"]), int(record["num_replicas"]),
            int(record["num_terms"]), seconds_per_sweep,
        ))
    return samples


_BOOTSTRAP_PARSERS = {
    "BENCH_bigR_kernels.json": _bigr_samples,
    "BENCH_higher_order.json": _higher_order_samples,
}


def bootstrap_model(root) -> PerfModel | None:
    """Fit a coarse prior from the committed ``BENCH_*.json`` grids.

    ``root`` is a directory holding the repo-root mirrors (or any
    directory of archived bench JSONs).  Returns ``None`` when no
    parseable grid is present.
    """
    root = Path(root)
    samples: dict[str, list] = {}
    for name, parser in _BOOTSTRAP_PARSERS.items():
        path = root / name
        if not path.is_file():
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        for key, rows in parser(payload).items():
            samples.setdefault(key, []).extend(rows)
    if not samples:
        return None
    configs = {key: fit_weights(rows) for key, rows in samples.items()}
    return PerfModel(configs, source="bootstrap")
