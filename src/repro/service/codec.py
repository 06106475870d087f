"""Wire codec: `SolveJob` and `SolveReport` as deterministic JSON.

The service is a front door, not a new solver, so the wire format is a
faithful projection of the in-process API: a request body is exactly the
keyword surface of :class:`repro.runtime.SolveJob` (problem encoded by
the canonical :mod:`repro.problems.io` JSON codec, arrays as
``{"dtype", "shape", "data"}`` envelopes), and a response body is the
:class:`repro.core.report.SolveReport` schema.  An envelope's ``data``
is base64 text of the array's little-endian bytes, so admitting a body
parses no JSON number per matrix entry; a body whose ``data`` is nested
lists of values, as hand-written bodies and older clients send, decodes
to the same job.  Encoding is *deterministic*: :func:`job_to_wire`
always emits every key in a fixed layout, and base64 text is a function
of the bytes, so ``job_to_wire(job_from_wire(w)) == w`` for any
canonical wire dict and identical jobs serialize to identical bytes
(after ``json.dumps(..., sort_keys=True)``) on every host.

Strictness is a feature — the codec rejects unknown keys, method and
backend names the registry does not know, backend options their builder
refuses, every call :func:`repro.solve` refuses before solving (through
the same :func:`repro.api.check_solve`), array envelopes that do not
decode exactly, non-seed RNGs (only ``null`` and non-negative ints
travel; live generator state does not), a replica count
that is not a JSON integer (never rounded or parsed), and exotic config
objects, so a malformed request dies at the front door with a
:class:`CodecError` (HTTP 400) instead of deep inside a worker.
"""

from __future__ import annotations

import math
from dataclasses import asdict, fields as dataclass_fields

import numpy as np

from repro.api import (
    DEFAULT_BACKEND,
    backend_info,
    check_solve,
    make_backend_factory,
    method_info,
)
from repro.core.engine import check_initial_lambdas
from repro.core.report import SolveReport
from repro.core.saim import SaimConfig
from repro.problems.io import array_from_json, array_to_json, problem_from_json, problem_to_json
from repro.runtime.executor import SolveJob

__all__ = [
    "CodecError",
    "job_to_wire",
    "job_from_wire",
    "report_to_wire",
    "report_from_wire",
]

# Every key a wire job may carry, in emission order: the SolveJob surface
# plus the service-only "warm_start" flag (session multiplier reuse is an
# explicit client opt-in because it changes results vs a cold solve).
_JOB_KEYS = (
    "problem", "method", "backend", "config", "num_replicas", "aggregate",
    "restart", "rng", "initial_lambdas", "backend_options",
    "method_options", "config_overrides", "tag", "warm_start",
)
_CONFIG_KEYS = tuple(spec.name for spec in dataclass_fields(SaimConfig))
# The report fields with no default on the wire.
_REPORT_REQUIRED = ("method", "best_cost", "feasible", "num_iterations")


class CodecError(ValueError):
    """A wire payload that cannot be faithfully encoded or decoded."""


def _check_seed(rng) -> int | None:
    if rng is None:
        return None
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        if rng < 0:
            raise CodecError(f"rng seed must be non-negative, got {rng}")
        return int(rng)
    raise CodecError(
        f"rng must be an integer seed or null on the wire, got "
        f"{type(rng).__name__} (live generator state does not serialize)"
    )


def _check_replicas(num_replicas) -> int:
    if isinstance(num_replicas, int) and not isinstance(num_replicas, bool):
        return num_replicas
    raise CodecError(
        f"num_replicas must be an integer, got {num_replicas!r}"
    )


def _check_options(name: str, options) -> dict | None:
    if options is None:
        return None
    if not isinstance(options, dict):
        raise CodecError(f"{name} must be a JSON object, got "
                         f"{type(options).__name__}")
    for key in options:
        if not isinstance(key, str):
            raise CodecError(f"{name} keys must be strings, got {key!r}")
    return dict(options)


def _config(fields: dict) -> SaimConfig:
    unknown = sorted(str(name) for name in set(fields) - set(_CONFIG_KEYS))
    if unknown:
        raise CodecError(f"unknown config fields: {', '.join(unknown)}")
    try:
        return SaimConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"bad config: {exc}") from None


def config_to_wire(config) -> dict | None:
    """A ``SaimConfig`` (or compatible mapping) as a plain JSON object."""
    if config is None:
        return None
    if isinstance(config, SaimConfig):
        return asdict(config)
    if isinstance(config, dict):
        return asdict(_config(config))
    raise CodecError(
        f"config must be a SaimConfig or a mapping of its fields, got "
        f"{type(config).__name__}"
    )


def config_from_wire(payload) -> SaimConfig | None:
    """Decode :func:`config_to_wire` output (unknown fields rejected)."""
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise CodecError(f"config must be a JSON object, got "
                         f"{type(payload).__name__}")
    return _config(payload)


def job_to_wire(job: SolveJob, *, warm_start: bool = False) -> dict:
    """Encode a :class:`SolveJob` as a canonical wire dict.

    Every key is always present, in a fixed order, so identical jobs
    produce identical wire bytes (determinism is what makes request
    hashing / replay / caching possible upstream).
    """
    if not isinstance(job, SolveJob):
        raise CodecError(f"expected a SolveJob, got {type(job).__name__}")
    lambdas = job.initial_lambdas
    return {
        "problem": problem_to_json(job.problem),
        "method": job.method,
        "backend": job.backend,
        "config": config_to_wire(job.config),
        "num_replicas": int(job.num_replicas),
        "aggregate": job.aggregate,
        "restart": job.restart,
        "rng": _check_seed(job.rng),
        "initial_lambdas":
            None if lambdas is None else array_to_json(lambdas),
        "backend_options": _check_options("backend_options",
                                          job.backend_options),
        "method_options": _check_options("method_options",
                                         job.method_options),
        "config_overrides": dict(job.config_overrides),
        "tag": job.tag,
        "warm_start": bool(warm_start),
    }


def job_from_wire(payload: dict) -> tuple[SolveJob, bool]:
    """Decode a wire dict to ``(SolveJob, warm_start)``.

    Missing keys take the :class:`SolveJob` defaults; unknown keys are a
    :class:`CodecError` (typos must not silently change a solve), and so
    is every call :func:`repro.solve` would refuse: the decoded job is
    one a worker can run.
    """
    if not isinstance(payload, dict):
        raise CodecError(f"request body must be a JSON object, got "
                         f"{type(payload).__name__}")
    unknown = sorted(set(payload) - set(_JOB_KEYS))
    if unknown:
        raise CodecError(f"unknown request fields: {', '.join(unknown)}")
    if "problem" not in payload:
        raise CodecError("request is missing the required 'problem' field")
    method = payload.get("method", "saim")
    backend = payload.get("backend")
    for field, name in (("method", method), ("backend", backend)):
        if name is not None and not isinstance(name, str):
            raise CodecError(f"{field} must be a string, got "
                             f"{type(name).__name__}")
    try:
        uses_backend = method_info(method).uses_backend
        if backend is not None:
            backend_info(backend)
    except ValueError as exc:
        raise CodecError(str(exc)) from None
    backend_options = _check_options("backend_options",
                                     payload.get("backend_options"))
    if uses_backend:
        # Resolve the options the way the solve will, so a knob the
        # builder refuses is a 400 here rather than a worker error.
        name = backend if backend is not None else DEFAULT_BACKEND
        try:
            make_backend_factory(name, **(backend_options or {}))
        except (TypeError, ValueError) as exc:
            raise CodecError(
                f"bad backend_options for backend {name!r}: {exc}"
            ) from None
    try:
        problem = problem_from_json(payload["problem"])
    except (ValueError, TypeError, KeyError) as exc:
        raise CodecError(f"bad problem payload: {exc}") from exc
    lambdas = payload.get("initial_lambdas")
    if lambdas is not None:
        try:
            lambdas = array_from_json(lambdas)
        except ValueError as exc:
            raise CodecError(f"bad initial_lambdas: {exc}") from None
    overrides = _check_options(
        "config_overrides", payload.get("config_overrides")
    )
    job = SolveJob(
        problem=problem,
        method=method,
        backend=backend,
        config=config_from_wire(payload.get("config")),
        num_replicas=_check_replicas(payload.get("num_replicas", 1)),
        aggregate=payload.get("aggregate", "best"),
        restart=payload.get("restart", "random"),
        rng=_check_seed(payload.get("rng")),
        initial_lambdas=lambdas,
        backend_options=backend_options,
        method_options=_check_options("method_options",
                                      payload.get("method_options")),
        config_overrides=overrides if overrides is not None else {},
        tag=payload.get("tag", ""),
    )
    warm_start = bool(payload.get("warm_start", False))
    if warm_start and job.initial_lambdas is not None:
        raise CodecError(
            "warm_start and initial_lambdas are mutually exclusive"
        )
    if warm_start and job.restart != "random":
        raise CodecError("warm_start requires the default restart='random'")
    _check_solve(job)
    return job, warm_start


def _check_solve(job: SolveJob) -> None:
    """Refuse, as a :class:`CodecError`, every job :func:`repro.solve`
    would refuse before solving, with the message it would raise."""
    try:
        check_solve(
            job.problem, job.method, job.backend, config=job.config,
            num_replicas=job.num_replicas, aggregate=job.aggregate,
            restart=job.restart, initial_lambdas=job.initial_lambdas,
            backend_options=job.backend_options,
            method_options=job.method_options, **job.config_overrides,
        )
        if job.initial_lambdas is not None:
            # One multiplier per constraint row of the problem, as the
            # engine's own check counts them.
            problem = job.problem
            if hasattr(problem, "to_problem"):
                problem = problem.to_problem()
            check_initial_lambdas(job.initial_lambdas,
                                  problem.num_constraints)
    except (TypeError, ValueError) as exc:
        raise CodecError(str(exc)) from None


def _cost_to_wire(cost: float):
    # best_cost is inf/nan when no feasible sample exists; strict JSON has
    # no spelling for either, so non-finite costs travel as strings.
    cost = float(cost)
    if math.isfinite(cost):
        return cost
    return repr(cost)


def report_to_wire(report: SolveReport) -> dict:
    """Encode a :class:`SolveReport` as a canonical wire dict.

    The identity fields (everything the report's own ``==`` compares,
    ``best_x`` included) travel exactly; of the free-form ``detail``
    payload only ``final_lambdas`` crosses the wire — it is what a client
    needs to chain warm solves — and the rest stays server-side.
    """
    final_lambdas = getattr(report.detail, "final_lambdas", None)
    return {
        "method": report.method,
        "backend": report.backend,
        "best_x": None if report.best_x is None else array_to_json(report.best_x),
        "best_cost": _cost_to_wire(report.best_cost),
        "feasible": bool(report.feasible),
        "num_iterations": int(report.num_iterations),
        "wall_seconds": float(report.wall_seconds),
        "problem_name": report.problem_name,
        "num_replicas": int(report.num_replicas),
        "total_mcs": int(report.total_mcs),
        "final_lambdas":
            None if final_lambdas is None else array_to_json(final_lambdas),
    }


class _WireDetail:
    """Detail stand-in for decoded reports: the one ``detail`` field the
    wire carries, reachable by attribute as on the server-side result."""

    def __init__(self, final_lambdas=None):
        self.final_lambdas = final_lambdas


def report_from_wire(payload: dict) -> SolveReport:
    """Decode :func:`report_to_wire` output back to a :class:`SolveReport`.

    The decoded report compares equal (``==``) to the original: the
    report's equality is defined over exactly the fields the wire carries.
    """
    if not isinstance(payload, dict):
        raise CodecError(f"report payload must be a JSON object, got "
                         f"{type(payload).__name__}")
    missing = [name for name in _REPORT_REQUIRED if name not in payload]
    if missing:
        raise CodecError(f"report payload is missing {', '.join(missing)}")
    best_x = payload.get("best_x")
    final_lambdas = payload.get("final_lambdas")
    try:
        return SolveReport(
            method=payload["method"],
            backend=payload.get("backend"),
            best_x=None if best_x is None else array_from_json(best_x),
            # Non-finite costs arrive as "inf"/"nan" strings; float()
            # reads both spellings.
            best_cost=float(payload["best_cost"]),
            feasible=bool(payload["feasible"]),
            num_iterations=int(payload["num_iterations"]),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            detail=(None if final_lambdas is None
                    else _WireDetail(array_from_json(final_lambdas))),
            problem_name=payload.get("problem_name", ""),
            num_replicas=int(payload.get("num_replicas", 1)),
            total_mcs=int(payload.get("total_mcs", 0)),
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise CodecError(f"bad report payload: {exc}") from exc
