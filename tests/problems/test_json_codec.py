"""Round-trip property tests for the canonical JSON problem codec.

The codec is the solver service's wire format, so its contract is exact:
``problem_from_json(json.loads(json.dumps(problem_to_json(p))))`` must
restore every array with the same dtype and bit-identical values, for
every registered problem family.  These tests drive randomized instances
of each family through a real ``json.dumps``/``loads`` cycle (not just
dict identity) and compare field by field.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.problems import (
    GapInstance,
    KnapsackInstance,
    MaxCutInstance,
    array_from_json,
    array_to_json,
    json_codec_classes,
    json_problem_kinds,
    problem_from_json,
    problem_to_json,
    register_problem_codec,
)
from repro.problems.generators import generate_mkp, generate_qkp
from repro.problems.gap import generate_gap
from repro.problems.max3sat import generate_max3sat
from repro.problems.mis import random_mis

seeds = st.integers(min_value=0, max_value=10**6)
WIRE_DTYPES = ["bool", "int8", "int16", "int32", "int64", "uint8", "uint16",
               "uint32", "uint64", "float32", "float64"]


def wire_cycle(instance):
    """Encode → real JSON bytes → decode, as the service does."""
    return problem_from_json(json.loads(json.dumps(problem_to_json(instance))))


def assert_arrays_identical(left, right):
    left, right = np.asarray(left), np.asarray(right)
    assert left.dtype == right.dtype
    assert left.shape == right.shape
    assert np.array_equal(left, right)


class TestArrayEnvelope:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_float_arrays_roundtrip_exactly(self, seed):
        rng = np.random.default_rng(seed)
        array = rng.uniform(-1e12, 1e12, size=(3, 5))
        decoded = array_from_json(json.loads(json.dumps(array_to_json(array))))
        assert_arrays_identical(array, decoded)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_integer_arrays_keep_dtype(self, seed):
        rng = np.random.default_rng(seed)
        array = rng.integers(1, 10**9, size=7, dtype=np.int64)
        decoded = array_from_json(json.loads(json.dumps(array_to_json(array))))
        assert_arrays_identical(array, decoded)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_wire_array_roundtrips_in_both_spellings(self, data):
        """Every dtype the wire carries, at 0-d, empty and 2-D shapes, from
        big-endian and Fortran-order inputs: the base64 envelope and the
        list spelling of the same array both decode, through real JSON, to
        a writeable native-order array with the same dtype, shape and
        bytes."""
        dtype = np.dtype(data.draw(st.sampled_from(WIRE_DTYPES)))
        if data.draw(st.booleans()):
            dtype = dtype.newbyteorder(">")
        shape = data.draw(st.sampled_from([(), (0,), (3, 0), (4,), (3, 5)]))
        finite = {"allow_nan": False, "allow_infinity": False}
        array = data.draw(hnp.arrays(
            dtype, shape, elements=finite if dtype.kind == "f" else None,
        ))
        if data.draw(st.booleans()):
            array = np.asfortranarray(array)
        expected = array.astype(dtype.newbyteorder("="), order="C")
        envelope = array_to_json(array)
        listed = {"dtype": envelope["dtype"], "shape": envelope["shape"],
                  "data": array.tolist()}
        for spelling in (envelope, listed):
            decoded = array_from_json(json.loads(json.dumps(spelling)))
            assert decoded.dtype == expected.dtype
            assert decoded.dtype.isnative and decoded.flags.writeable
            assert decoded.shape == expected.shape
            assert decoded.tobytes() == expected.tobytes()

    def test_list_spelling_reads_integers_exactly(self):
        """numpy infers float64 for a list holding 0 and 2**64 - 1; the
        decode reads the listed Python ints exactly."""
        for array in (np.array([0, 2**64 - 1], dtype=np.uint64),
                      np.array([-2**63, 2**63 - 1], dtype=np.int64)):
            listed = {"dtype": array.dtype.name, "shape": [2],
                      "data": array.tolist()}
            decoded = array_from_json(json.loads(json.dumps(listed)))
            assert_arrays_identical(array, decoded)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            array_to_json(np.array([1.0, np.inf]))

    def test_malformed_envelope_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            array_from_json({"dtype": "float64"})


class TestProblemRoundTrips:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_qkp(self, seed):
        instance = generate_qkp(12, 0.5, rng=seed, name=f"qkp-{seed}")
        decoded = wire_cycle(instance)
        assert_arrays_identical(instance.values, decoded.values)
        assert_arrays_identical(instance.pair_values, decoded.pair_values)
        assert_arrays_identical(instance.weights, decoded.weights)
        assert instance.capacity == decoded.capacity
        assert instance.name == decoded.name

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_mkp(self, seed):
        instance = generate_mkp(10, 3, rng=seed, name=f"mkp-{seed}")
        decoded = wire_cycle(instance)
        assert_arrays_identical(instance.values, decoded.values)
        assert_arrays_identical(instance.weights, decoded.weights)
        assert_arrays_identical(instance.capacities, decoded.capacities)
        assert instance.name == decoded.name

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_knapsack(self, seed):
        rng = np.random.default_rng(seed)
        instance = KnapsackInstance(
            values=rng.uniform(1, 100, 9),
            weights=rng.integers(1, 40, 9),
            capacity=int(rng.integers(40, 120)),
            name=f"kp-{seed}",
        )
        decoded = wire_cycle(instance)
        assert_arrays_identical(instance.values, decoded.values)
        assert_arrays_identical(instance.weights, decoded.weights)
        assert decoded.weights.dtype == np.int64
        assert instance.capacity == decoded.capacity

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_maxcut(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0, 1, (8, 8))
        adjacency = np.triu(raw, k=1) + np.triu(raw, k=1).T
        instance = MaxCutInstance(adjacency, name=f"mc-{seed}")
        decoded = wire_cycle(instance)
        assert_arrays_identical(instance.adjacency, decoded.adjacency)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_mis(self, seed):
        instance = random_mis(10, 0.4, rng=seed)
        decoded = wire_cycle(instance)
        assert_arrays_identical(instance.weights, decoded.weights)
        assert instance.edges == decoded.edges

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_gap(self, seed):
        instance = generate_gap(6, 3, rng=seed)
        decoded = wire_cycle(instance)
        assert_arrays_identical(instance.costs, decoded.costs)
        assert_arrays_identical(instance.loads, decoded.loads)
        assert_arrays_identical(instance.capacities, decoded.capacities)


class TestIntegerFields:
    """MIS edges and Max-3-SAT counts and literals decode exactly or are
    refused: a fraction, a numeric string or a bool is not an integer
    (they used to be truncated or parsed by ``int``)."""

    @pytest.mark.parametrize("edges", [
        [[0.7, 1.2], ["2", "3"]], [[0, 1.0]], [["0", 1]], [[0, True]],
        ["23"],
    ])
    def test_mis_edges_refused(self, edges):
        payload = problem_to_json(random_mis(4, 0.5, rng=1))
        payload["edges"] = edges
        with pytest.raises(ValueError, match="edges must hold JSON integers"):
            problem_from_json(json.loads(json.dumps(payload)))

    @pytest.mark.parametrize("field, value", [
        ("num_variables", 3.9), ("num_variables", 3.0),
        ("num_variables", "3"), ("num_variables", True),
        ("clauses", [[1, "-2", 3]]), ("clauses", [[1, 2, 3.7]]),
        ("clauses", [[False, 2]]),
    ])
    def test_max3sat_fields_refused(self, field, value):
        payload = problem_to_json(generate_max3sat(3, 4, rng=1))
        payload[field] = value
        with pytest.raises(ValueError, match=f"{field} must hold JSON integers"):
            problem_from_json(json.loads(json.dumps(payload)))

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_max3sat_roundtrips(self, seed):
        instance = generate_max3sat(6, 12, rng=seed)
        decoded = wire_cycle(instance)
        assert decoded.num_variables == instance.num_variables
        assert decoded.clauses == instance.clauses


class TestRegistry:
    def test_every_front_door_family_has_a_codec(self):
        """The deep-lint RPD106 contract, pinned as a test too."""
        import inspect

        import repro.problems as problems

        covered = set(json_codec_classes())
        for name in problems.__all__:
            obj = getattr(problems, name)
            if inspect.isclass(obj) and hasattr(obj, "to_problem"):
                assert obj in covered, f"{name} has no JSON codec"

    def test_kinds_sorted_and_stable(self):
        kinds = json_problem_kinds()
        assert list(kinds) == sorted(kinds)
        assert {"qkp", "mkp", "knapsack", "maxcut", "mis", "gap"} <= set(kinds)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            problem_from_json({"kind": "sudoku"})

    def test_unregistered_class_rejected(self):
        with pytest.raises(TypeError, match="no JSON codec"):
            problem_to_json(object())

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_problem_codec("qkp", GapInstance, dict, dict)
