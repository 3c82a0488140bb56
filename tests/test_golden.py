"""Golden bytes: outputs that a refactor must leave exactly as they are.

The digests and reprs were recorded with numpy 2.4.6 (OpenBLAS 0.3.31,
Python 3.11).  They pin the sample-config reports and path dump, and the
velocity diagnostics, which no byte-determinism test covers otherwise.  A
change of numpy or BLAS may move the last digits without any change in the
package; re-record them then from a commit whose behaviour is unchanged.
"""

import hashlib
from pathlib import Path

import pytest

from smallmass.cli import dispatch
from smallmass.dynamics import diagnostics_velocity
from smallmass.models import ModelSpec, model_library

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN_FILES = {
    ("converge", "convergence_constant.json"): {
        "report.json": "c17a8aa5adb74a72c88b4ba9fa076d7653c13c2604fc75ba1dfa22190fd72847",
        "report.csv": "8e5928d05c4bc972602500d2e69c7809f08294ce6467999c1519857e795c1303",
    },
    ("simulate", "simulate_interaction.json"): {
        "paths.csv": "2fad404809f4f1c77a3254b159430bd1b5d018a43e8f9ea4b66b397f63c7b27b",
    },
}


@pytest.mark.parametrize("command, config", sorted(GOLDEN_FILES))
def test_sample_config_outputs(tmp_path, capsys, command, config):
    assert dispatch([command, str(CONFIGS / config), "--out", str(tmp_path)]) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_FILES[command, config]
    }
    assert got == GOLDEN_FILES[command, config]


def constant_ou():
    return model_library(ModelSpec("constant", {"gamma0": 2.0, "K": 1.0, "sigma": 1.0}))


def test_diagnostics_explicit_three_particles():
    diag = diagnostics_velocity(
        constant_ou(), 0.05, T=0.5, delta=0.0025, replicas=20, seed=3, n_particles=3
    )
    assert repr(vars(diag)) == (
        "{'sup_ev2': 0.3762511728518736, 'sup_ev2_stderr': 0.06145734561428592, "
        "'sup_ev2_time': 0.15, 'mean_sup_ev4': 0.019459795578473434, "
        "'mean_sup_ev4_stderr': 0.0018714586612595065, 'replicas': 20}"
    )


def test_diagnostics_exponential_record_grid_off_the_end():
    # T/delta = 37 steps with n_record = 7: records every 5 steps, and the
    # last two steps are stepped but not recorded
    diag = diagnostics_velocity(
        constant_ou(), 0.05, T=0.37, delta=0.01, replicas=9, seed=4,
        scheme="exponential", n_record=7,
    )
    assert repr(vars(diag)) == (
        "{'sup_ev2': 0.43028249852859063, 'sup_ev2_stderr': 0.2288883539025338, "
        "'sup_ev2_time': 0.1, 'mean_sup_ev4': 0.005346994565318617, "
        "'mean_sup_ev4_stderr': 0.0019432545716406213, 'replicas': 9}"
    )
