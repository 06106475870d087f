"""Wire-codec tests: jobs and reports through JSON, deterministically."""

import json
import warnings
from dataclasses import replace

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
from tests.helpers import BAD_WEIGHT_ENVELOPES, list_spelled, qkp6_with_weights

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
        # warm_start needs the default restart, so it travels on its own.
        for case, warm_start in ((job, False),
                                 (replace(job, restart="random"), True)):
            wire = job_to_wire(case, warm_start=warm_start)
            decoded, warm = job_from_wire(json_cycle(wire))
            assert warm is warm_start
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

    @pytest.mark.parametrize("seed", [-5, np.int64(-1)])
    def test_negative_seed_rejected(self, seed):
        """np.random.default_rng refuses a negative seed, so the wire does,
        before admission, naming it."""
        wire = job_to_wire(SolveJob(generate_qkp(6, 0.5, rng=2)))
        wire["rng"] = seed
        with pytest.raises(CodecError, match=f"non-negative, got {seed}"):
            job_from_wire(wire)

    @pytest.mark.parametrize("case", sorted(BAD_WEIGHT_ENVELOPES))
    def test_inexact_envelope_rejected(self, case):
        """An envelope decodes exactly or is refused: overflowing,
        truncated, string or infinite values, dtypes that do not travel and
        bad shapes are a CodecError, never a silent cast or a warning."""
        envelope, message = BAD_WEIGHT_ENVELOPES[case]
        wire = {"problem": qkp6_with_weights(envelope)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CodecError, match=message):
                job_from_wire(wire)

    def test_bad_initial_lambdas_envelope_is_a_codec_error(self):
        wire = job_to_wire(SolveJob(generate_qkp(6, 0.5, rng=2)))
        wire["initial_lambdas"] = {"dtype": "float64", "shape": [1],
                                   "data": "not base64!"}
        with pytest.raises(CodecError, match="initial_lambdas"):
            job_from_wire(wire)

    def test_list_spelling_decodes_to_the_same_job(self):
        """A body whose arrays are nested lists (hand-written, or from an
        older client) decodes to the job its base64 twin decodes to."""
        job = SolveJob(generate_mkp(8, 3, rng=1), rng=4,
                       initial_lambdas=np.array([0.25, 1.5, 3.125]))
        wire = json_cycle(job_to_wire(job))
        listed = json_cycle(wire)
        for key in ("values", "weights", "capacities"):
            listed["problem"][key] = list_spelled(wire["problem"][key])
        listed["initial_lambdas"] = list_spelled(wire["initial_lambdas"])
        assert isinstance(listed["problem"]["weights"]["data"], list)
        decoded, _ = job_from_wire(json_cycle(listed))
        assert job_to_wire(decoded) == wire

    def test_unknown_config_field_rejected(self):
        wire = job_to_wire(SolveJob(generate_qkp(6, 0.5, rng=2)))
        wire["config"] = {"num_iterations": 5, "temperature": 2.0}
        with pytest.raises(CodecError, match="temperature"):
            job_from_wire(wire)

    def test_warm_start_conflicts_are_errors(self):
        """Session multipliers cannot be combined with caller multipliers
        or a warm restart; both are refused at decode, before admission."""
        instance = generate_qkp(10, 0.5, rng=3)
        bad = job_to_wire(SolveJob(instance, initial_lambdas=np.array([1.0])),
                          warm_start=True)
        with pytest.raises(CodecError, match="mutually exclusive"):
            job_from_wire(bad)
        bad = job_to_wire(SolveJob(instance, restart="warm"), warm_start=True)
        with pytest.raises(CodecError, match="restart='random'"):
            job_from_wire(bad)

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
    # An MKP: every registered method takes one (milp refuses a QKP).
    wire = job_to_wire(SolveJob(generate_mkp(6, 2, rng=2)))
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


class TestBackendOptions:
    """Backend options are resolved through the backend's builder at decode
    time, so an option it refuses never reaches a worker."""

    @pytest.mark.parametrize("backend, options, named", [
        (None, {"nope": 1}, "nope"),
        ("pbit", {"dtype": "float16"}, "float16"),
        ("pbit", {"kernel": "bogus"}, "kernel"),
        # The retired program-cache knob, spelled in two parts as in
        # test_cli: it is one more unknown option.
        ("quantized", {"program_" + "cache": "mine"}, "program_" + "cache"),
        # Values the machines refuse are refused here, not by the worker
        # that builds the machine.
        ("quantized", {"kernel": "bogus"}, "kernel"),
        ("quantized", {"bits": 0}, "bits"),
        ("quantized", {"bits": 2.5}, "bits"),
        ("chromatic", {"storage": "bogus"}, "storage"),
    ])
    def test_refused_options_rejected_before_the_problem(
            self, backend, options, named):
        # The problem payload is garbage: the options check runs first.
        with pytest.raises(CodecError, match="bad backend_options") as excinfo:
            job_from_wire({"problem": "garbage", "backend": backend,
                           "backend_options": options})
        assert named in str(excinfo.value)

    @pytest.mark.parametrize("backend, options", [
        (None, {"dtype": "float32"}),
        ("quantized", {"bits": 6}),
        ("pbit", {"kernel": "serial"}),
        ("chromatic", {"storage": "csr"}),
    ])
    def test_accepted_options_decode_unchanged(self, backend, options):
        wire = wire_with(backend=backend, backend_options=options)
        job, _ = job_from_wire(json_cycle(wire))
        assert job.backend_options == options
        assert job_to_wire(job) == wire


def solve_job(job: SolveJob):
    return repro.solve(
        job.problem, job.method, job.backend, config=job.config,
        num_replicas=job.num_replicas, aggregate=job.aggregate,
        restart=job.restart, rng=job.rng,
        initial_lambdas=job.initial_lambdas,
        backend_options=job.backend_options,
        method_options=job.method_options, **job.config_overrides,
    )


class TestSolveRefusals:
    """A job repro.solve refuses before solving is refused at decode, with
    the front door's own message, so it never reaches a worker."""

    @pytest.mark.parametrize("fields", [
        dict(method="greedy", backend_options={"dtype": "float32"}),
        dict(method="greedy", backend="pbit"),
        dict(method="greedy", config_overrides={"num_iterations": 2}),
        dict(method="penalty", backend_options={"dtype": "float32"}),
        dict(method="penalty", restart="warm"),
        dict(method="penalty", config_overrides={"dtype": "float32"}),
        dict(method="milp"),  # a QKP: milp takes linear objectives only
        dict(backend="pt"),  # retired backends are unknown names
        dict(backend="metropolis"),
        dict(restart="cold"),
        dict(aggregate="median"),
        dict(num_replicas=0),
        dict(method_options={"x": 1}),
        dict(config_overrides={"bogus": 1}),
        dict(config_overrides={"num_iterations": 0}),
        dict(backend_options={"dtype": "float32"},
             config_overrides={"dtype": "float64"}),
        dict(initial_lambdas=np.zeros(2)),  # a QKP has one constraint row
        dict(method="greedy", method_options={"temperature": 3}),
        dict(method="greedy", method_options={"max_rounds": "many"}),
        dict(method="ga", method_options={"population_size": -4}),
        dict(method="ga", method_options={"generations": 4}),
        dict(method="bnb", method_options={"nodes": 10}),
        dict(method="exhaustive", method_options={"x": 1}),
        dict(method="penalty", aggregate="bogus"),
        dict(method="penalty", aggregate="mean"),
    ], ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()))
    def test_same_refusal_as_the_front_door(self, fields):
        job = SolveJob(generate_qkp(6, 0.5, rng=2), rng=1, **fields)
        with pytest.raises(ValueError) as direct:
            solve_job(job)
        with pytest.raises(CodecError) as wire:
            job_from_wire(json_cycle(job_to_wire(job)))
        assert str(wire.value) == str(direct.value)

    @pytest.mark.parametrize("value", [2.7, "3", True, None, [2]])
    def test_num_replicas_is_not_coerced(self, value):
        wire = job_to_wire(SolveJob(generate_qkp(6, 0.5, rng=2), rng=1))
        wire["num_replicas"] = value
        with pytest.raises(CodecError,
                           match="num_replicas must be an integer"):
            job_from_wire(json_cycle(wire))


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


@pytest.mark.parametrize("codec, payload, field", [
    (report_from_wire, {}, "method"),
    (report_from_wire, {"method": "saim", "best_cost": 1.0,
                        "feasible": True}, "num_iterations"),
    (config_to_wire, {"temperature": 1}, "temperature"),
    (config_from_wire, {"eta": float("nan")}, "eta"),
])
def test_malformed_payload_is_a_codec_error(codec, payload, field):
    """A truncated report or a mistyped config is a CodecError naming the
    field, never a bare KeyError or TypeError."""
    with pytest.raises(CodecError, match=field):
        codec(payload)
