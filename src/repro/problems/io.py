"""Instance serialization: plain-text formats and the canonical JSON codec.

QKP files follow the layout of the standard Billionnet–Soutif distribution
files (name, N, linear values, upper-triangle pairwise values, a 0/1
constraint-type flag, capacity, weights); MKP files use the compact layout
of the OR-Library ``mknap`` files (N M optimum, values, M weight rows,
capacities).  Both round-trip exactly through their reader/writer pairs.

The JSON codec (:func:`problem_to_json` / :func:`problem_from_json`) is
the wire format of the solver service: every registered problem family
serializes to a ``{"kind": ..., ...payload}`` dict of JSON-native values.
Arrays travel as ``{"dtype", "shape", "data"}`` envelopes whose ``data``
is the base64 text of the values' little-endian, C-order bytes, so
decoded instances are bit-identical to the originals (same dtype, same
values) on every host, which is what lets a service solve land on the
same trajectory as an in-process solve, and a decode parses no JSON
number.  The decode also reads ``data`` spelled as nested lists of
values, as hand-written bodies send it; either spelling decodes exactly
or is refused.  New problem families join the wire format through
:func:`register_problem_codec`.
"""

from __future__ import annotations

import binascii
import math
import reprlib
from pathlib import Path

import numpy as np

from repro.problems.gap import GapInstance
from repro.problems.knapsack import KnapsackInstance
from repro.problems.max3sat import Max3SatInstance
from repro.problems.maxcut import MaxCutInstance
from repro.problems.mis import MisInstance
from repro.problems.mkp import MkpInstance
from repro.problems.qkp import QkpInstance


def _format_row(row) -> str:
    return " ".join(f"{value:g}" for value in row)


def write_qkp(instance: QkpInstance, path) -> None:
    """Write ``instance`` in the Billionnet–Soutif text layout."""
    n = instance.num_items
    lines = [instance.name or f"qkp-{n}", str(n)]
    lines.append(_format_row(instance.values))
    for i in range(n - 1):
        lines.append(_format_row(instance.pair_values[i, i + 1 :]))
    lines.append("")  # blank separator, as in the reference files
    lines.append("0")  # 0 = inequality (knapsack) constraint
    lines.append(f"{instance.capacity:g}")
    lines.append(_format_row(instance.weights))
    Path(path).write_text("\n".join(lines) + "\n")


def read_qkp(path) -> QkpInstance:
    """Read an instance written by :func:`write_qkp`.

    Raises ``ValueError`` when the file does not follow that layout.
    """
    raw = [line.strip() for line in Path(path).read_text().splitlines()]
    try:
        name = raw[0]
        n = int(raw[1])
        if not 1 <= n <= len(raw):
            raise ValueError(f"item count {n} does not fit a {len(raw)}-line file")
        values = np.array([float(v) for v in raw[2].split()])
        pair_values = np.zeros((n, n))
        for i in range(n - 1):
            row = np.array([float(v) for v in raw[3 + i].split()])
            if row.size != n - 1 - i:
                raise ValueError(
                    f"row {i} of {path} has {row.size} entries, expected {n - 1 - i}"
                )
            pair_values[i, i + 1 :] = row
        pair_values = pair_values + pair_values.T
        cursor = 3 + (n - 1)
        while raw[cursor] == "":
            cursor += 1
        constraint_type = int(raw[cursor])
        if constraint_type != 0:
            raise ValueError(f"unsupported constraint type {constraint_type} in {path}")
        capacity = float(raw[cursor + 1])
        weights = np.array([float(v) for v in raw[cursor + 2].split()])
    except IndexError:
        raise ValueError(f"{path} ends before its QKP layout is complete") from None
    return QkpInstance(values, pair_values, weights, capacity, name=name)


def write_mkp(instance: MkpInstance, path, optimum: float = 0.0) -> None:
    """Write ``instance`` in the OR-Library ``mknap`` layout."""
    n = instance.num_items
    m = instance.num_constraints
    lines = [f"{n} {m} {optimum:g}"]
    lines.append(_format_row(instance.values))
    for row in instance.weights:
        lines.append(_format_row(row))
    lines.append(_format_row(instance.capacities))
    if instance.name:
        lines.append(f"# {instance.name}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_gap(instance: GapInstance, path) -> None:
    """Write a GAP instance in the OR-Library ``gap`` layout.

    First line ``agents jobs``; then agent-major cost rows, agent-major
    load rows, and the capacities.  (OR-Library stores costs/loads per
    agent; our containers are job-major, so rows are transposed on the
    way out and back.)
    """
    agents = instance.num_agents
    jobs = instance.num_jobs
    lines = [f"{agents} {jobs}"]
    for agent in range(agents):
        lines.append(_format_row(instance.costs[:, agent]))
    for agent in range(agents):
        lines.append(_format_row(instance.loads[:, agent]))
    lines.append(_format_row(instance.capacities))
    if instance.name:
        lines.append(f"# {instance.name}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_gap(path) -> GapInstance:
    """Read an instance written by :func:`write_gap`."""
    raw = [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]
    agents, jobs = (int(v) for v in raw[0].split())
    costs = np.array(
        [[float(v) for v in raw[1 + a].split()] for a in range(agents)]
    ).T
    loads = np.array(
        [[float(v) for v in raw[1 + agents + a].split()] for a in range(agents)]
    ).T
    capacities = np.array([float(v) for v in raw[1 + 2 * agents].split()])
    if costs.shape != (jobs, agents):
        raise ValueError(
            f"expected {jobs}x{agents} costs in {path}, got {costs.shape}"
        )
    name = ""
    if len(raw) > 2 + 2 * agents and raw[2 + 2 * agents].startswith("#"):
        name = raw[2 + 2 * agents].lstrip("# ").strip()
    return GapInstance(costs, loads, capacities, name=name)


def read_mkp(path) -> tuple[MkpInstance, float]:
    """Read an instance written by :func:`write_mkp`.

    Returns ``(instance, recorded_optimum)`` — the optimum field is 0 when
    unknown, mirroring the OR-Library convention.  Raises ``ValueError``
    when the file does not follow that layout.
    """
    raw = [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]
    try:
        header = raw[0].split()
        n, m, optimum = int(header[0]), int(header[1]), float(header[2])
        values = np.array([float(v) for v in raw[1].split()])
        if values.size != n:
            raise ValueError(f"expected {n} values, got {values.size}")
        weights = np.array([[float(v) for v in raw[2 + i].split()] for i in range(m)])
        capacities = np.array([float(v) for v in raw[2 + m].split()])
    except IndexError:
        raise ValueError(f"{path} ends before its MKP layout is complete") from None
    name = ""
    if len(raw) > 3 + m and raw[3 + m].startswith("#"):
        name = raw[3 + m].lstrip("# ").strip()
    return MkpInstance(values, weights, capacities, name=name), optimum


# --------------------------------------------------------------------------
# Canonical JSON codec (the solver service's wire format)
# --------------------------------------------------------------------------

def _wire_dtype(spec) -> np.dtype:
    """The native-order dtype ``spec`` names, if the wire carries it.

    Bool, integer and float arrays travel; floats wider than 8 bytes do
    not, since a ``longdouble``'s bytes differ from platform to platform.
    """
    try:
        dtype = np.dtype(spec)
    except (TypeError, ValueError):
        raise ValueError(f"unknown array dtype {spec!r}") from None
    if dtype.kind not in "biuf" or dtype.itemsize > 8:
        raise ValueError(
            f"array dtype {dtype.name!r} does not travel; use bool, an "
            f"integer or a float of at most 64 bits"
        )
    return dtype.newbyteorder("=")


def array_to_json(array) -> dict:
    """JSON envelope for an array: exact dtype, shape, and values.

    ``data`` is the base64 text of the values' little-endian, C-order
    bytes, so the decode restores every value bit for bit without reading
    one JSON number, and identical arrays give identical text.  Only the
    dtypes :func:`array_from_json` accepts are encoded, and non-finite
    values are rejected, as the decode rejects them.
    """
    array = np.asarray(array)
    dtype = _wire_dtype(array.dtype)
    if dtype.kind == "f" and not np.all(np.isfinite(array)):
        raise ValueError("cannot encode non-finite array values as JSON")
    raw = array.astype(dtype.newbyteorder("<"), copy=False).tobytes()
    return {
        "dtype": dtype.name,
        "shape": list(array.shape),
        "data": binascii.b2a_base64(raw, newline=False).decode("ascii"),
    }


def array_from_json(payload: dict) -> np.ndarray:
    """Decode an array envelope to a writeable, native-order array.

    The JSON type of ``data`` picks the spelling.  A string is
    :func:`array_to_json`'s base64, decoded strictly, and must hold
    exactly ``prod(shape)`` items' bytes.  Anything else is the value
    spelling that hand-written bodies send (nested lists, or a bare number
    for a 0-d array), read value by value.

    Either spelling decodes exactly or raises ``ValueError``: the dtype
    must be bool, integer or float; the shape a list of non-negative
    integers; floats finite; bools 0 or 1; and a listed value one the
    dtype holds as given (no overflow, no truncated fraction, no string,
    no rounding to an infinity).
    """
    try:
        spec, shape, data = payload["dtype"], payload["shape"], payload["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed array envelope: {exc}") from exc
    if not isinstance(spec, str):
        raise ValueError(f"array dtype must be a string, got {spec!r}")
    dtype = _wire_dtype(spec)
    if not isinstance(shape, list) or not all(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0
        for dim in shape
    ):
        raise ValueError(
            f"array shape must be a list of non-negative integers, got {shape!r}"
        )
    count = math.prod(shape)
    if isinstance(data, str):
        array = _array_from_base64(data, dtype, count)
    else:
        array = _array_from_values(data, dtype, count)
    if dtype.kind == "f" and not np.all(np.isfinite(array)):
        raise ValueError(f"{dtype.name} array holds non-finite values")
    return array.reshape(shape)


def _array_from_base64(data: str, dtype: np.dtype, count: int) -> np.ndarray:
    try:
        raw = binascii.a2b_base64(data, strict_mode=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"array data is not strict base64: {exc}") from None
    # strict_mode still takes padding after a whole quad ("AAAA=").
    if len(data) != 4 * -(-len(raw) // 3):
        raise ValueError("array data is not strict base64: excess padding")
    if len(raw) != count * dtype.itemsize:
        raise ValueError(
            f"array data holds {len(raw)} bytes; {count} {dtype.name} "
            f"values take {count * dtype.itemsize}"
        )
    if dtype.kind == "b" and raw.translate(None, b"\x00\x01"):
        raise ValueError("bool array bytes must be 0 or 1")
    return np.frombuffer(raw, dtype.newbyteorder("<")).astype(dtype)


def _array_from_values(data, dtype: np.dtype, count: int) -> np.ndarray:
    if dtype.kind == "f":
        values = np.asarray(data)
        if values.dtype.kind not in "biuf":
            raise ValueError(f"{dtype.name} array data must be numbers")
        # An overflow to an infinity is refused by the caller's finite check.
        with np.errstate(over="ignore"):
            array = values.astype(dtype, copy=False)
    else:
        # Python ints, read exactly: inferring a numeric dtype would read a
        # uint64 list holding both 0 and 2**64 - 1 as float64.
        values = np.asarray(data, dtype=object)
        items = values.ravel().tolist()
        if not all(isinstance(item, int) for item in items):
            raise ValueError(f"{dtype.name} array data must be integers")
        low, high = (0, 1) if dtype.kind == "b" else (
            int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
        if items and not low <= min(items) <= max(items) <= high:
            raise ValueError(
                f"{dtype.name} array values must lie in [{low}, {high}]"
            )
        array = values.astype(dtype)
    if array.size != count:
        raise ValueError(
            f"array data holds {array.size} values; its shape needs {count}"
        )
    return array


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer; a fraction, a numeric string or a
    bool is refused rather than truncated or parsed."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(
            f"{field} must hold JSON integers, got {reprlib.repr(value)}"
        )
    return value


# kind -> (class, encode(instance) -> payload, decode(payload) -> instance)
_JSON_CODECS: dict = {}
_KIND_BY_CLASS: dict = {}


def register_problem_codec(kind: str, cls, encode, decode) -> None:
    """Register a problem family with the JSON wire format.

    ``encode(instance) -> dict`` must emit JSON-native values only (use
    :func:`array_to_json` for arrays); ``decode(payload) -> instance``
    must invert it exactly.  The ``kind`` tag is the wire discriminator
    and must be unique.
    """
    if kind in _JSON_CODECS:
        raise ValueError(f"problem codec {kind!r} is already registered")
    _JSON_CODECS[kind] = (cls, encode, decode)
    _KIND_BY_CLASS[cls] = kind


def json_problem_kinds() -> tuple:
    """Registered wire-format kind tags, sorted."""
    return tuple(sorted(_JSON_CODECS))


def json_codec_classes() -> tuple:
    """Instance classes with a registered JSON codec."""
    return tuple(cls for cls, _, _ in _JSON_CODECS.values())


def problem_to_json(instance) -> dict:
    """Serialize a registered problem instance to a JSON-native dict."""
    kind = _KIND_BY_CLASS.get(type(instance))
    if kind is None:
        raise TypeError(
            f"no JSON codec registered for {type(instance).__name__}; "
            f"known kinds: {', '.join(json_problem_kinds())}"
        )
    _, encode, _ = _JSON_CODECS[kind]
    payload = encode(instance)
    payload["kind"] = kind
    return payload


def problem_from_json(payload: dict) -> object:
    """Decode a :func:`problem_to_json` dict back to an instance."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValueError("problem payload must be a dict with a 'kind' tag")
    kind = payload["kind"]
    if kind not in _JSON_CODECS:
        raise ValueError(
            f"unknown problem kind {kind!r}; "
            f"known kinds: {', '.join(json_problem_kinds())}"
        )
    _, _, decode = _JSON_CODECS[kind]
    return decode({key: value for key, value in payload.items() if key != "kind"})


register_problem_codec(
    "qkp",
    QkpInstance,
    lambda p: {
        "values": array_to_json(p.values),
        "pair_values": array_to_json(p.pair_values),
        "weights": array_to_json(p.weights),
        "capacity": float(p.capacity),
        "name": p.name,
    },
    lambda d: QkpInstance(
        array_from_json(d["values"]), array_from_json(d["pair_values"]),
        array_from_json(d["weights"]), d["capacity"], name=d.get("name", ""),
    ),
)
register_problem_codec(
    "mkp",
    MkpInstance,
    lambda p: {
        "values": array_to_json(p.values),
        "weights": array_to_json(p.weights),
        "capacities": array_to_json(p.capacities),
        "name": p.name,
    },
    lambda d: MkpInstance(
        array_from_json(d["values"]), array_from_json(d["weights"]),
        array_from_json(d["capacities"]), name=d.get("name", ""),
    ),
)
register_problem_codec(
    "knapsack",
    KnapsackInstance,
    lambda p: {
        "values": array_to_json(p.values),
        "weights": array_to_json(p.weights),
        "capacity": int(p.capacity),
        "name": p.name,
    },
    lambda d: KnapsackInstance(
        array_from_json(d["values"]), array_from_json(d["weights"]),
        d["capacity"], name=d.get("name", ""),
    ),
)
register_problem_codec(
    "maxcut",
    MaxCutInstance,
    lambda p: {"adjacency": array_to_json(p.adjacency), "name": p.name},
    lambda d: MaxCutInstance(
        array_from_json(d["adjacency"]), name=d.get("name", "")
    ),
)
register_problem_codec(
    "mis",
    MisInstance,
    lambda p: {
        "weights": array_to_json(p.weights),
        "edges": [[int(u), int(v)] for u, v in p.edges],
        "name": p.name,
    },
    lambda d: MisInstance(
        array_from_json(d["weights"]),
        tuple((_json_int(u, "edges"), _json_int(v, "edges"))
              for u, v in d["edges"]),
        name=d.get("name", ""),
    ),
)
register_problem_codec(
    "max3sat",
    Max3SatInstance,
    lambda p: {
        "num_variables": int(p.num_variables),
        "clauses": [[int(literal) for literal in clause] for clause in p.clauses],
        "name": p.name,
    },
    lambda d: Max3SatInstance(
        _json_int(d["num_variables"], "num_variables"),
        tuple(tuple(_json_int(literal, "clauses") for literal in clause)
              for clause in d["clauses"]),
        name=d.get("name", ""),
    ),
)
register_problem_codec(
    "gap",
    GapInstance,
    lambda p: {
        "costs": array_to_json(p.costs),
        "loads": array_to_json(p.loads),
        "capacities": array_to_json(p.capacities),
        "name": p.name,
    },
    lambda d: GapInstance(
        array_from_json(d["costs"]), array_from_json(d["loads"]),
        array_from_json(d["capacities"]), name=d.get("name", ""),
    ),
)
