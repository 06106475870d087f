"""The committed root ``BENCH_*.json`` perf records are strict JSON."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token!r}")


def test_root_bench_records_are_strict_json():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, "no BENCH_*.json records at the repository root"
    for path in records:
        try:
            json.loads(path.read_text(), parse_constant=_reject_constant)
        except ValueError as error:
            raise AssertionError(f"{path.name}: {error}") from None
