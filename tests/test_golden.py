"""Golden bytes: outputs that a refactor must leave exactly as they are.

The digests and reprs were recorded with numpy 2.4.6 (OpenBLAS 0.3.31,
Python 3.11).  They pin the sample-config reports and path dump, the
reports of d = 2 and d = 4 interaction runs under the exponential rule (a
stack of d > 1 matrix exponentials at every fast step), the ``validate``
output (two d = 1 sample configs, a d = 4 interaction model and a d = 3
carrillo-force model), the ``solve --oracle`` output at d = 1, 2 (one
defective friction among them) and 3, the bytes of ``limit_drift_fields``
against explicit measure samples, and the velocity diagnostics, which no
byte-determinism test covers otherwise.  A
change of numpy or BLAS may move the last digits without any change in the
package; re-record them then from a commit whose behaviour is unchanged.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from smallmass.cli import dispatch
from smallmass.dynamics import diagnostics_velocity
from smallmass.models import ModelSpec, limit_drift_fields, model_library

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The explicit-rule sweep of convergence_constant.json runs every eps on one
# draw on the union of its fast grids, which here is the finest grid, so its
# eps = 0.01 row is that grid's own run.
GOLDEN_FILES = {
    ("converge", "convergence_constant.json"): {
        "report.json": "5ac661b36d8e687a94279f6bf949a1a8ede2253aa37297b4eb5fd0023751c4f4",
        "report.csv": "2de1bfab5bea8ef14c0692e438ba9baa870d1c2b3eb63595459fa95852663e0b",
    },
    ("simulate", "simulate_interaction.json"): {
        "paths.csv": "78bc5fa7ed454f63364ad75ef1167f4f1e552c4e9fe5c663318d4a3407ae3f56",
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


def converge_digests(tmp_path, doc) -> dict:
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    assert dispatch(["converge", str(config), "--out", str(tmp_path)]) == 0
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("report.json", "report.csv")
    }


def test_interaction_d2_exponential_reports(tmp_path, capsys):
    assert converge_digests(tmp_path, INTERACTION_D2_EXPONENTIAL) == {
        "report.json": "d1794effd8d85597671f8e92f100114e6ce306a20ee35507a6036f65d30978fb",
        "report.csv": "4b59b7c8a1bfbefbbad55a2420d4f0bbe9bd1722ef74607509b44e6e83604b89",
    }


INTERACTION_D4_EXPONENTIAL = {
    "seed": 9,
    "model": {
        "family": "interaction",
        "params": {
            "a": 2.0, "b": 0.5, "c": 1.0, "d": 4, "k": 4,
            "sigma": [
                [1.0, 0.3, -0.2, 0.1],
                [0.2, 0.9, 0.3, -0.1],
                [-0.1, 0.2, 1.1, 0.3],
                [0.3, -0.2, 0.1, 0.8],
            ],
        },
    },
    "simulation": {
        "N": 4, "T": 0.04, "epsilon_list": [0.1, 0.05, 0.025],
        "delta_rule": {"type": "exponential", "delta": 0.0025},
        "Delta": 0.01, "replicas": 6,
        "x0": [
            [0.3, -0.2, 0.5, 0.0],
            [-0.4, 0.1, 0.0, 0.6],
            [0.2, 0.7, -0.3, -0.5],
            [0.0, -0.6, 0.4, 0.2],
        ],
    },
}


def test_interaction_d4_exponential_reports(tmp_path, capsys):
    # the shape of the meanfield-d4 benchmark: every eps shares one limit path
    assert converge_digests(tmp_path, INTERACTION_D4_EXPONENTIAL) == {
        "report.json": "91bd7082c3a7560b20583b616bad8d6f31bc22639dbb72fdfe06d31b5456f643",
        "report.csv": "b9a1e19d555dda53c9abdb384e8df66fd12216e7102ff88c4c001b7db4d9ef1d",
    }


# The report numbers of the two runs above as they read while expm ran its
# Taylor series on diagonal matrices above d = 1 and matmat took the einsum on
# dense operands.  np.exp and np.matmul moved the pins in the last bits only.
BEFORE_NP_EXP = {
    "d2": (INTERACTION_D2_EXPONENTIAL, {
        "errors": [0.010621558958647703, 0.0062607276839827496, 0.0032973630168442445],
        "stderrs": [0.0020382378155500442, 0.0010770447258553646, 0.00052454491454656104],
        "slope": 0.84380544941893276, "intercept": -2.5831716333329386, "r2": 0.99692179547697013,
        "ratios": [0.033588318611092946, 0.027998825380000498, 0.02085435481126393],
    }),
    "d4": (INTERACTION_D4_EXPONENTIAL, {
        "errors": [0.024750800311203244, 0.016061676173344041, 0.0094318100776977897],
        "stderrs": [0.0045788121748129686, 0.0031906201762813662, 0.0014017128446883415],
        "slope": 0.69593430102298293, "intercept": -2.0797951251679483, "r2": 0.99643679620219405,
        "ratios": [0.078268902895406584, 0.071829999512371942, 0.059652004607309413],
    }),
}


@pytest.mark.parametrize("name", sorted(BEFORE_NP_EXP))
def test_exponential_reports_stay_within_1e12_of_the_series(tmp_path, capsys, name):
    doc, before = BEFORE_NP_EXP[name]
    converge_digests(tmp_path, doc)
    report = json.loads((tmp_path / "report.json").read_text())
    for key, old in before.items():
        assert report[key] == pytest.approx(old, rel=1e-12, abs=0.0), key


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


CARRILLO_D3 = {
    "seed": 4,
    "model": {
        "family": "carrillo-force",
        "params": {
            "a": 2.0, "b": -0.6, "c": 0.8, "d": 3, "kappa_v": 1.5, "c_w": 0.7,
            "sigma": [[1.0, 0.2, 0.0], [-0.3, 0.9, 0.1], [0.2, 0.0, 0.7]],
        },
    },
    "simulation": {"N": 3, "T": 0.05, "epsilon": 0.05, "Delta": 0.01},
}

# beyond d = 1: a dense-sigma interaction model, and a carrillo-force model in
# extension mode, where the force reads the measure and its Lipschitz ratio
# is taken against |x1 - x2| + W2
GOLDEN_VALIDATE_D_ABOVE_1 = {
    "interaction-d4": (
        INTERACTION_D4_EXPONENTIAL,
        "min_sym_eig=1.5702858143245617\n"
        "argmin_state=[0.89283411819241909, -1.7015811483806016, "
        "-1.9706480221625555, -1.2822618972396254]\n"
        "max_dmu_norm=0.72112747361283303\nn_probes=256\nlipschitz_force=1\n"
        "lipschitz_friction=0.42603398732468956\n"
        "lipschitz_friction_dx=0.32277134588673989\nlipschitz_noise=0\n"
        "violated=false\n",
    ),
    "carrillo-force-d3": (
        CARRILLO_D3,
        "min_sym_eig=1.4843188538392174\n"
        "argmin_state=[1.732073921496279, -1.9216701002689263, 1.8605632443463209]\n"
        "max_dmu_norm=0.89794194618264822\nn_probes=256\n"
        "lipschitz_force=1.7416873707091445\n"
        "lipschitz_friction=0.55746290036380786\n"
        "lipschitz_friction_dx=0.52247664730599797\nlipschitz_noise=0\n"
        "violated=false\n",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VALIDATE_D_ABOVE_1))
def test_validate_output_above_d1(tmp_path, capsys, name):
    doc, expected = GOLDEN_VALIDATE_D_ABOVE_1[name]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    assert dispatch(["validate", str(config)]) == 0
    assert capsys.readouterr().out == expected


# The point solvers run the stack solve on a stack of one.
GOLDEN_SOLVE = {
    "lyapunov-d3": (
        {
            "gamma": [[2.0, 0.5, -0.3], [0.1, 1.5, 0.4], [-0.2, 0.3, 1.8]],
            "Q": [[1.0, 0.2, 0.1], [0.2, 0.8, -0.1], [0.1, -0.1, 0.6]],
        },
        '{"J": [[0.26145614298835274, -0.0061510269630024855, 0.066122574984014304], '
        "[-0.0061510269630024855, 0.28885863206171902, -0.081682113490696262], "
        "[0.066122574984014304, -0.081682113490696262, 0.18762730502445088]], "
        '"oracle_gap": 7.5435518942512658e-10}\n',
    ),
    # d = 1 takes the one division formula, Q / (G1 + G2)
    "lyapunov-d1": (
        {"gamma": [[2.5]], "Q": [[0.7]]},
        '{"J": [[0.13999999999999999]], "oracle_gap": 5.0000000251237964e-09}\n',
    ),
    "sylvester-d1": (
        {"A": [[-1.5]], "B": [[0.8]], "C": [[0.6]]},
        '{"Y": [[-0.2608695652173913]], "oracle_gap": 1.2473355681663634e-12}\n',
    ),
    "lyapunov-d2": (
        {"gamma": [[1.5, 0.4], [-0.2, 2.0]], "Q": [[1.0, 0.3], [0.3, 0.5]]},
        '{"J": [[0.30983302411873836, 0.08812615955473091], '
        "[0.08812615955473091, 0.13381261595547306]], "
        '"oracle_gap": 5.2552950879913851e-10}\n',
    ),
    "sylvester-d2": (
        {
            "A": [[-2.0, 0.5], [0.3, -1.2]],
            "B": [[1.1, -0.4], [0.2, 1.6]],
            "C": [[0.4, -0.7], [0.9, 0.2]],
        },
        '{"Y": [[-0.20493485493951932, 0.15597499922261263], '
        "[-0.40820610093597448, -0.11303212164557362]], "
        '"oracle_gap": 4.8560608312264719e-10}\n',
    ),
    # a defective friction: the spectral solve flags it, and the sign
    # iteration gives the exact J, within 1e-9 of the oracle
    "lyapunov-d2-defective": (
        {"gamma": [[2.0, 1.0], [0.0, 2.0]], "Q": [[1.0, 0.0], [0.0, 1.0]]},
        '{"J": [[0.28125, -0.0625], [-0.0625, 0.25]], "oracle_gap": 2.4263785425304718e-10}\n',
    ),
    "sylvester-d3": (
        {
            "A": [[-2.0, 0.4, 0.0], [-0.3, -1.5, 0.2], [0.1, 0.0, -1.2]],
            "B": [[1.0, 0.3, -0.2], [0.0, 2.5, 0.1], [0.4, -0.1, 1.7]],
            "C": [[0.5, -1.0, 0.2], [0.3, 0.0, 0.7], [-0.6, 0.1, 1.1]],
        },
        '{"Y": [[-0.1590574877990677, 0.22868252258125019, -0.094116910557465738], '
        "[-0.03704806905047376, -0.023085509170869212, -0.23388204811171193], "
        "[0.33054880894705158, -0.057317479065363726, -0.35778282115855159]], "
        '"oracle_gap": 8.3329954048139143e-11}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SOLVE))
def test_solve_with_oracle_output(tmp_path, capsys, name):
    problem, expected = GOLDEN_SOLVE[name]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert dispatch(["solve", str(path), "--oracle"]) == 0
    assert capsys.readouterr().out == expected


# A Y - Y B = C is solved as (-A) Y + Y B = -C: the exact zeros of this
# diagonal problem's solution come out as +0, and print as 0.
def test_solve_prints_exact_zeros_unsigned(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "A": [[-1.0, 0, 0], [0, -2.0, 0], [0, 0, -3.0]],
        "B": [[1.0, 0, 0], [0, 2.0, 0], [0, 0, 0.5]],
        "C": [[1.0, 0, 0], [0, 2.0, 0], [0, 0, 1.5]],
    }))
    assert dispatch(["solve", str(path), "--oracle"]) == 0
    assert capsys.readouterr().out == (
        '{"Y": [[-0.5, 0, 0], [0, -0.5, 0], [0, 0, -0.42857142857142855]], '
        '"oracle_gap": 3.8857805861880479e-16}\n'
    )


# limit_drift_fields against a measure given by its own samples: x and y
# friction evaluated apart, and m = 3 points against n = 4 samples.  Both
# digests are of the factor-by-factor contraction of S and S~.
GOLDEN_DRIFT_EXPLICIT_SAMPLES = {
    1: ([[0.9]], "845cf10b809ebb51721d74203538552580ffb2e50cea4b11508f28819b82dee9"),
    2: (
        [[1.0, 0.3], [-0.2, 0.8]],
        "ccd70b32d8a2e96547555ac3158dd19a2b687b7072d747a12e33d1521c5c0149",
    ),
}


@pytest.mark.parametrize("d", sorted(GOLDEN_DRIFT_EXPLICIT_SAMPLES))
def test_limit_drift_fields_with_explicit_samples(d):
    sigma, expected = GOLDEN_DRIFT_EXPLICIT_SAMPLES[d]
    model = model_library(
        ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": d, "sigma": sigma})
    )
    rng = np.random.default_rng(d)
    X = rng.standard_normal((2, 3, d))
    samples = rng.standard_normal((2, 4, d))
    fields = limit_drift_fields(model, X, samples)
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(f).tobytes() for f in fields))
    assert digest.hexdigest() == expected


def constant_ou():
    return model_library(ModelSpec("constant", {"gamma0": 2.0, "K": 1.0, "sigma": 1.0}))


def test_diagnostics_explicit_three_particles():
    diag = diagnostics_velocity(
        constant_ou(), 0.05, T=0.5, delta=0.0025, replicas=20, seed=3, n_particles=3
    )
    assert repr(vars(diag)) == (
        "{'sup_ev2': 0.37625117285187365, 'sup_ev2_stderr': 0.061457345614285924, "
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
        "{'sup_ev2': 0.4302824985285907, 'sup_ev2_stderr': 0.22888835390253376, "
        "'sup_ev2_time': 0.1, 'mean_sup_ev4': 0.005346994565318617, "
        "'mean_sup_ev4_stderr': 0.0019432545716406213, 'replicas': 9}"
    )


def test_diagnostics_explicit_300_replicas_one_batch():
    # 300 replicas, one batch at the default batch size: the per-time sums
    # fold the 300 records in replica order, as they do for any batching
    diag = diagnostics_velocity(constant_ou(), 0.05, T=0.2, delta=0.0025, replicas=300, seed=7)
    assert repr(vars(diag)) == (
        "{'sup_ev2': 0.30595974844074053, 'sup_ev2_stderr': 0.026154799836412352, "
        "'sup_ev2_time': 0.18, 'mean_sup_ev4': 0.006520342632117218, "
        "'mean_sup_ev4_stderr': 0.0003876852192370168, 'replicas': 300}"
    )


def test_diagnostics_exponential_d2_300_replicas_one_batch():
    # 300 replicas of 2 particles at d = 2, also one batch at the default size
    model = model_library(ModelSpec("interaction", INTERACTION_D2_EXPONENTIAL["model"]["params"]))
    diag = diagnostics_velocity(
        model, 0.05, T=0.1, delta=0.01, replicas=300, seed=8, n_particles=2,
        scheme="exponential", n_record=5, x0=[[0.3, -0.2], [-0.1, 0.4]],
    )
    assert repr(vars(diag)) == (
        "{'sup_ev2': 0.29936526002759417, 'sup_ev2_stderr': 0.012044682793694968, "
        "'sup_ev2_time': 0.04, 'mean_sup_ev4': 0.0027346583281034854, "
        "'mean_sup_ev4_stderr': 0.0001353689352376448, 'replicas': 300}"
    )
    # the pin as it read under the Taylor series and the einsum
    before = {"sup_ev2": 0.29936526002759417, "sup_ev2_stderr": 0.012044682793694972,
              "mean_sup_ev4": 0.002734658328103485, "mean_sup_ev4_stderr": 0.00013536893523764484}
    for key, old in before.items():
        assert getattr(diag, key) == pytest.approx(old, rel=1e-12, abs=0.0), key
