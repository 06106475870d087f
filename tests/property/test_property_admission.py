"""Property: a request the service admits is one its worker can run.

Wire bodies are drawn from small pools of the knobs a client sets: the
registered method and backend, backend options, ``warm_start``,
``restart``, ``initial_lambdas`` and config overrides, all on a QKP-6
with a budget of one iteration of two sweeps.  Each body is either
refused by :func:`job_from_wire` (a ``CodecError``, which the HTTP door
answers 400 before queueing) or runs in a worker without a
``CodecError``, ``ValueError`` or ``TypeError``: a client error found
only after admission would be answered 500.

Array envelopes mutated the ways a client or a channel can break them (a
wrong byte count, a character outside the base64 alphabet, NaN or
infinite values, a dtype or shape that does not travel) are refused by
:func:`job_from_wire` with a ``CodecError`` and no warning.
"""

import base64
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.problems.generators import generate_qkp
from repro.problems.io import array_to_json, problem_to_json
from repro.service.codec import CodecError, job_from_wire
from repro.service.pool import WorkerRuntime

QKP6 = problem_to_json(generate_qkp(6, 0.5, rng=4))  # one constraint row
BUDGET = {"num_iterations": 1, "mcs_per_run": 2}
GA_BUDGET = {"population_size": 4, "num_children": 10}
CLIENT_ERRORS = ("CodecError", "ValueError", "TypeError")

#: Each knob's pool of values other than its default.
KNOBS = {
    "backend": st.sampled_from(repro.available_backends()),
    "backend_options": st.sampled_from([
        {}, {"dtype": "float32"}, {"dtype": "float64"}, {"bits": 6},
        {"storage": "csr"}, {"kernel": "serial"}, {"kernel": "bogus"},
        {"bits": 2.5}, {"nope": 1},
    ]),
    "warm_start": st.just(True),
    "restart": st.sampled_from(["warm", "cold"]),
    "initial_lambdas": st.sampled_from([
        array_to_json(np.array([0.5])), array_to_json(np.zeros(2)),
    ]),
    "config_overrides": st.sampled_from([
        {"eta": 5.0}, {"dtype": "float32"}, {"dtype": "float64"},
        {"num_iterations": 0}, {"bogus": 1},
    ]),
}


@st.composite
def bodies(draw):
    method = draw(st.sampled_from(repro.available_methods()))
    body = {"problem": QKP6, "method": method, "rng": 3}
    # The budget: a config where the method takes one, a short GA run.
    if repro.method_info(method).uses_config:
        body["config"] = BUDGET
    if method == "ga":
        body["method_options"] = GA_BUDGET
    # A few knobs set away from their defaults; the rest stay missing.
    for name in sorted(draw(st.sets(st.sampled_from(sorted(KNOBS)),
                                    max_size=2))):
        body[name] = draw(KNOBS[name])
    return body


@settings(max_examples=150, deadline=None)
@given(body=bodies())
def test_admitted_bodies_run_without_client_errors(body):
    try:
        job, warm_start = job_from_wire(body)
    except CodecError:
        return
    response = WorkerRuntime().execute(job, warm_start)
    if not response["ok"]:
        error = response["error"]
        assert error["type"] not in CLIENT_ERRORS, (
            f"admitted, then failed in the worker: {error['type']}: "
            f"{error['message']}"
        )


#: A QKP-6 body with one multiplier, and the path to each of its
#: (float64) array envelopes.
ENVELOPE_BODY = {"problem": QKP6, "rng": 3, "config": BUDGET,
                 "initial_lambdas": array_to_json(np.array([0.5]))}
ENVELOPE_PATHS = [("problem", "values"), ("problem", "pair_values"),
                  ("problem", "weights"), ("initial_lambdas",)]
NOT_BASE64 = [" ", "\n", "!", "-", "_", ".", "\u00e9", "\x00", "="]
BAD_DTYPES = ["complex128", "object", "float128", "U8", "datetime64[s]",
              "nope", "", 7, None, ["f8"], {"names": ["a"], "formats": ["f8"]}]
BAD_SHAPES = [[-1], [6.5], [True], "6", None, {"0": 6}, [2**70], [0, -3]]


@st.composite
def mutated_bodies(draw):
    body = json.loads(json.dumps(ENVELOPE_BODY))
    envelope = body
    for key in draw(st.sampled_from(ENVELOPE_PATHS)):
        envelope = envelope[key]
    text = envelope["data"]
    raw = base64.b64decode(text)
    mutation = draw(st.sampled_from(
        ["byte-count", "alphabet", "non-finite", "dtype", "shape"]))
    if mutation == "byte-count":
        size = len(raw) + draw(st.sampled_from([-8, -3, -1, 1, 5, 8]))
        envelope["data"] = base64.b64encode(raw.ljust(size, b"\0")[:size]).decode()
    elif mutation == "alphabet":
        at = draw(st.integers(0, len(text)))
        envelope["data"] = text[:at] + draw(st.sampled_from(NOT_BASE64)) + text[at:]
    elif mutation == "non-finite":
        values = np.frombuffer(raw, "<f8").copy()
        values[draw(st.integers(0, values.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        envelope["data"] = base64.b64encode(values.tobytes()).decode()
    elif mutation == "dtype":
        envelope["dtype"] = draw(st.sampled_from(BAD_DTYPES))
    else:
        count = math.prod(envelope["shape"])
        envelope["shape"] = draw(st.sampled_from(BAD_SHAPES + [[count + 1]]))
    return body


def test_envelope_body_is_admitted():
    """The bodies below differ from an admitted one in one envelope."""
    job_from_wire(json.loads(json.dumps(ENVELOPE_BODY)))


@settings(max_examples=300, deadline=None)
@given(body=mutated_bodies())
def test_mutated_envelopes_are_refused_without_warnings(body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CodecError):
            job_from_wire(body)
