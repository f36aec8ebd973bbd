"""The committed benchmark records at the repository root: each parses, says
how it was run and on what, holds its runs, and has its partner (a change's
record and its ``_parent`` record come in pairs)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(p.name for p in ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("name", BENCH_FILES)
def test_record(name):
    record = json.loads((ROOT / name).read_text())
    assert isinstance(record, dict)
    assert isinstance(record.get("command"), str) and record["command"]
    assert isinstance(record.get("machine"), dict) and record["machine"]
    assert isinstance(record.get("runs"), list) and record["runs"]
    stem = name.removesuffix(".json")
    partner = stem.removesuffix("_parent") if stem.endswith("_parent") else stem + "_parent"
    assert f"{partner}.json" in BENCH_FILES
