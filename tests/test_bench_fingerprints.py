"""The bytes of one benchmark round of every workload, pinned.

``perfbench/workloads.py`` is imported as it stands, and each workload's
round runs at seeds 1 and 2 (about 3 s in all).  A round's fingerprint is the
bytes of its report files and diagnostics (``workloads.fingerprint``); the
test pins the first 16 hex digits of the sha256 of its ``repr``.  A change
that moves a report's bytes on purpose re-records the digest here and says
so in CHANGES.md.
"""

import hashlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# workload -> digests at seeds 1 and 2
DIGESTS = {
    "ou-replicas": ("47a820d449e1425a", "e4579adc01af04c4"),
    "ou-particles": ("9a0f26985e3cac98", "40c8ec1ab36e54d6"),
    "meanfield-d1": ("8203d9e9b84d3607", "0709cd182ac2efaf"),
    "meanfield-d4": ("759301b2069decdc", "4335eb088837e35f"),
}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_every_workload_is_pinned(workloads):
    assert set(DIGESTS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_round_fingerprint(workloads, tmp_path, name, seed):
    w = workloads.WORKLOADS[name]
    cfg, _ = workloads.setup(w, seed, str(tmp_path))
    out = workloads.run_round(w, cfg, str(tmp_path))
    digest = hashlib.sha256(repr(workloads.fingerprint(out, str(tmp_path))).encode()).hexdigest()
    assert digest[:16] == DIGESTS[name][seed - 1]
