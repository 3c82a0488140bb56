"""The ``BENCH_*.json`` records at the repository root: each parses, each
entry carries the end-to-end medians and the environment they were taken in,
and each change entry has a parent entry to compare with."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
MEDIANS = ("setup_s", "sweep_s", "steps_per_s", "peak_rss_mb")
ENVIRONMENT = ("nproc", "blas", "numpy", "commit")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_entries_carry_medians_and_environment(path):
    doc = json.loads(path.read_text())
    assert doc["entries"]
    for entry in doc["entries"]:
        assert entry["side"] in ("parent", "change")
        assert isinstance(entry["workload"], str)
        for key in MEDIANS:
            assert isinstance(entry[key], (int, float)) and math.isfinite(entry[key])
        for key in ENVIRONMENT:
            assert entry[key] not in (None, "")


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_every_change_entry_has_a_parent_entry(path):
    entries = json.loads(path.read_text())["entries"]
    parents = {(e["workload"], e["seed"]) for e in entries if e["side"] == "parent"}
    for entry in entries:
        if entry["side"] == "change":
            assert (entry["workload"], entry["seed"]) in parents
