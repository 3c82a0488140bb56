"""Golden bytes: outputs that a refactor must leave exactly as they are.

The digests and reprs were recorded with numpy 2.4.6 (OpenBLAS 0.3.31,
Python 3.11).  They pin the sample-config reports and path dump, the
reports of a d = 2 interaction run under the exponential rule (a stack of
d > 1 matrix exponentials at every fast step), the ``validate`` and
``solve --oracle`` output, and the velocity diagnostics, which no
byte-determinism test covers otherwise.  A
change of numpy or BLAS may move the last digits without any change in the
package; re-record them then from a commit whose behaviour is unchanged.
"""

import hashlib
import json
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


INTERACTION_D2_EXPONENTIAL = {
    "seed": 5,
    "model": {
        "family": "interaction",
        "params": {"a": 2.0, "b": 0.5, "c": 1.0, "d": 2, "sigma": [[1.0, 0.3], [0.0, 0.8]]},
    },
    "simulation": {
        "N": 3, "T": 0.05, "epsilon_list": [0.1, 0.05, 0.025],
        "delta_rule": {"type": "exponential", "delta": 0.0025},
        "Delta": 0.01, "replicas": 8,
    },
}


def test_interaction_d2_exponential_reports(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(INTERACTION_D2_EXPONENTIAL))
    assert dispatch(["converge", str(config), "--out", str(tmp_path)]) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("report.json", "report.csv")
    }
    assert got == {
        "report.json": "093288758fa056e7c20ffd00cd18a52def3662c5c9e189b2019439cd8a1beb18",
        "report.csv": "246f5894c1823735d02f5e7d604757af5d6a3c7c495fb14de5679138c07dac0c",
    }


GOLDEN_VALIDATE = {
    "convergence_constant.json": (
        "min_sym_eig=2\nargmin_state=[-2]\nmax_dmu_norm=0\nn_probes=256\n"
        "lipschitz_force=1\nlipschitz_friction=0\nlipschitz_friction_dx=0\n"
        "lipschitz_noise=0\nviolated=false\n"
    ),
    "simulate_interaction.json": (
        "min_sym_eig=1.8004503797113163\nargmin_state=[-2]\n"
        "max_dmu_norm=0.64911270643593033\nn_probes=256\nlipschitz_force=1\n"
        "lipschitz_friction=0.61212452577822507\n"
        "lipschitz_friction_dx=0.94163710404085865\nlipschitz_noise=0\n"
        "violated=false\n"
    ),
}


@pytest.mark.parametrize("config", sorted(GOLDEN_VALIDATE))
def test_validate_output(capsys, config):
    assert dispatch(["validate", str(CONFIGS / config)]) == 0
    assert capsys.readouterr().out == GOLDEN_VALIDATE[config]


GOLDEN_SOLVE = {
    "lyapunov-d3": (
        {
            "gamma": [[2.0, 0.5, -0.3], [0.1, 1.5, 0.4], [-0.2, 0.3, 1.8]],
            "Q": [[1.0, 0.2, 0.1], [0.2, 0.8, -0.1], [0.1, -0.1, 0.6]],
        },
        '{"J": [[0.26145614298835296, -0.0061510269630027491, 0.066122574984014457], '
        "[-0.0061510269630027491, 0.2888586320617193, -0.081682113490696429], "
        "[0.066122574984014457, -0.081682113490696429, 0.18762730502445102]], "
        '"oracle_gap": 7.5435546698088274e-10}\n',
    ),
    "sylvester-d3": (
        {
            "A": [[-2.0, 0.4, 0.0], [-0.3, -1.5, 0.2], [0.1, 0.0, -1.2]],
            "B": [[1.0, 0.3, -0.2], [0.0, 2.5, 0.1], [0.4, -0.1, 1.7]],
            "C": [[0.5, -1.0, 0.2], [0.3, 0.0, 0.7], [-0.6, 0.1, 1.1]],
        },
        '{"Y": [[-0.15905748779906773, 0.22868252258125021, -0.094116910557465752], '
        "[-0.037048069050473816, -0.023085509170869219, -0.23388204811171195], "
        "[0.33054880894705174, -0.057317479065363691, -0.3577828211585517]], "
        '"oracle_gap": 8.3330120581592837e-11}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SOLVE))
def test_solve_with_oracle_output(tmp_path, capsys, name):
    problem, expected = GOLDEN_SOLVE[name]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert dispatch(["solve", str(path), "--oracle"]) == 0
    assert capsys.readouterr().out == expected


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
