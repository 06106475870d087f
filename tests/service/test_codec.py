"""Wire-codec tests: jobs and reports through JSON, deterministically."""

import json

import numpy as np
import pytest

import repro
from repro.core.saim import SaimConfig
from repro.problems.generators import generate_mkp, generate_qkp
from repro.runtime import SolveJob
from repro.service.codec import (
    CodecError,
    config_from_wire,
    config_to_wire,
    job_from_wire,
    job_to_wire,
    report_from_wire,
    report_to_wire,
)

FAST = dict(num_iterations=8, mcs_per_run=50)


def json_cycle(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


class TestJobWire:
    def test_roundtrip_is_canonical(self):
        """job_to_wire(job_from_wire(w)) == w: the determinism contract."""
        job = SolveJob(
            generate_qkp(10, 0.5, rng=1), method="saim", backend="quantized",
            config=SaimConfig(num_iterations=20, mcs_per_run=100),
            num_replicas=4, aggregate="best", restart="warm", rng=7,
            backend_options={"bits": 6}, config_overrides={"eta": 5.0},
            tag="wire-test",
        )
        wire = job_to_wire(job, warm_start=True)
        decoded, warm = job_from_wire(json_cycle(wire))
        assert warm is True
        assert job_to_wire(decoded, warm_start=warm) == wire

    def test_identical_jobs_identical_bytes(self):
        job = SolveJob(generate_mkp(8, 2, rng=3), rng=11)
        first = json.dumps(job_to_wire(job), sort_keys=True)
        second = json.dumps(job_to_wire(job), sort_keys=True)
        assert first == second

    def test_defaults_fill_missing_keys(self):
        wire = {"problem": repro.problems.problem_to_json(
            generate_qkp(6, 0.5, rng=2))}
        job, warm = job_from_wire(wire)
        assert job.method == "saim"
        assert job.backend is None
        assert job.num_replicas == 1
        assert warm is False

    def test_unknown_keys_rejected(self):
        wire = job_to_wire(SolveJob(generate_qkp(6, 0.5, rng=2)))
        wire["tempreature"] = 3.0
        with pytest.raises(CodecError, match="tempreature"):
            job_from_wire(wire)

    def test_missing_problem_rejected(self):
        with pytest.raises(CodecError, match="problem"):
            job_from_wire({"method": "saim"})

    def test_generator_rng_rejected(self):
        job = SolveJob(generate_qkp(6, 0.5, rng=2),
                       rng=np.random.default_rng(3))
        with pytest.raises(CodecError, match="integer seed"):
            job_to_wire(job)

    def test_unknown_config_field_rejected(self):
        wire = job_to_wire(SolveJob(generate_qkp(6, 0.5, rng=2)))
        wire["config"] = {"num_iterations": 5, "temperature": 2.0}
        with pytest.raises(CodecError, match="temperature"):
            job_from_wire(wire)

    def test_initial_lambdas_travel_exactly(self):
        lambdas = np.array([0.25, 1.5, 3.125])
        job = SolveJob(generate_mkp(8, 3, rng=1), initial_lambdas=lambdas)
        decoded, _ = job_from_wire(json_cycle(job_to_wire(job)))
        assert np.array_equal(decoded.initial_lambdas, lambdas)
        assert decoded.initial_lambdas.dtype == lambdas.dtype


class TestReportWire:
    def test_roundtrip_preserves_equality(self):
        instance = generate_qkp(14, 0.5, rng=4)
        report = repro.solve(instance, rng=9, **FAST)
        decoded = report_from_wire(json_cycle(report_to_wire(report)))
        assert decoded == report  # SolveReport.__eq__ covers best_x too
        assert np.array_equal(decoded.best_x, report.best_x)

    def test_roundtrip_is_canonical(self):
        instance = generate_qkp(14, 0.5, rng=4)
        wire = report_to_wire(repro.solve(instance, rng=9, **FAST))
        assert report_to_wire(report_from_wire(json_cycle(wire))) == wire

    def test_final_lambdas_cross_the_wire(self):
        instance = generate_mkp(10, 3, rng=5)
        report = repro.solve(instance, rng=2, **FAST)
        decoded = report_from_wire(json_cycle(report_to_wire(report)))
        assert np.array_equal(decoded.final_lambdas,
                              report.detail.final_lambdas)

    def test_non_finite_cost_travels_as_string(self):
        from repro.core.report import SolveReport

        report = SolveReport(
            method="saim", backend="pbit", best_x=None,
            best_cost=float("inf"), feasible=False, num_iterations=3,
        )
        wire = json_cycle(report_to_wire(report))
        assert wire["best_cost"] == "inf"
        assert report_from_wire(wire).best_cost == float("inf")

    @pytest.mark.parametrize("method", repro.available_methods())
    def test_every_method_report_round_trips(self, method):
        mkp = generate_mkp(12, 2, rng=3)
        kwargs = {}
        if repro.method_info(method).uses_config:
            kwargs = dict(FAST)
        if method == "ga":
            kwargs = dict(
                method_options={"population_size": 10, "num_children": 100}
            )
        report = repro.solve(mkp, method=method, rng=0, **kwargs)
        wire = json_cycle(report_to_wire(report))
        decoded = report_from_wire(wire)
        assert decoded == report
        assert report_to_wire(decoded) == wire
        # Only the multipliers cross the wire; methods without them
        # decode with no detail at all.
        lambdas = getattr(report.detail, "final_lambdas", None)
        if lambdas is None:
            assert decoded.detail is None
        else:
            assert np.array_equal(decoded.detail.final_lambdas, lambdas)


def wire_with(**fields) -> dict:
    wire = job_to_wire(SolveJob(generate_qkp(6, 0.5, rng=2)))
    wire.update(fields)
    return wire


class TestRegistryNames:
    """Method and backend names are checked against the registry at
    decode time, so an unknown name never reaches a worker."""

    @pytest.mark.parametrize("method", repro.available_methods())
    def test_registered_method_decodes(self, method):
        wire = wire_with(method=method)
        job, _ = job_from_wire(json_cycle(wire))
        assert job.method == method
        assert job_to_wire(job) == wire

    @pytest.mark.parametrize("backend", repro.available_backends())
    def test_registered_backend_decodes(self, backend):
        wire = wire_with(backend=backend)
        job, _ = job_from_wire(json_cycle(wire))
        assert job.backend == backend
        assert job_to_wire(job) == wire

    @pytest.mark.parametrize("field, name", [
        ("method", "auto"),
        ("method", "nope"),
        ("method", ""),
        ("method", "SAIM"),
        ("method", None),
        ("backend", "auto"),
        ("backend", "nope"),
        ("backend", ""),
        ("backend", "PBIT"),
    ])
    def test_unknown_name_rejected_before_the_problem(self, field, name):
        # The problem payload is garbage: the name check runs first, so
        # the error is about the name, not the problem.
        with pytest.raises(CodecError,
                           match=f"unknown {field} {name!r}; available"):
            job_from_wire({"problem": "garbage", field: name})

    @pytest.mark.parametrize("field, name", [
        ("method", ["saim"]),
        ("method", {"saim": 1}),
        ("method", 7),
        ("backend", ["pbit"]),
        ("backend", 7),
    ])
    def test_non_string_name_rejected(self, field, name):
        with pytest.raises(CodecError, match=f"{field} must be a string, "
                                             f"got {type(name).__name__}"):
            job_from_wire(wire_with(**{field: name}))


class TestConfigWire:
    def test_round_trip(self):
        config = SaimConfig(num_iterations=20, mcs_per_run=100, eta=5.0)
        assert config_from_wire(json_cycle(config_to_wire(config))) == config

    def test_mapping_encodes_as_the_full_config(self):
        assert (config_to_wire({"num_iterations": 5})
                == config_to_wire(SaimConfig(num_iterations=5)))

    def test_none_passes_through(self):
        assert config_to_wire(None) is None
        assert config_from_wire(None) is None

    @pytest.mark.parametrize("config", [42, "fast"])
    def test_encoding_rejects_non_configs(self, config):
        with pytest.raises(CodecError, match="SaimConfig or a mapping"):
            config_to_wire(config)

    @pytest.mark.parametrize("payload", [[], "fast"])
    def test_decoding_rejects_non_objects(self, payload):
        with pytest.raises(CodecError, match="config must be a JSON object"):
            config_from_wire(payload)
