"""Tests of the benchmark's reference computations.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import workloads  # noqa: E402
from smallmass.driver import NoiseDriver  # noqa: E402
from smallmass.dynamics import run_limit_path  # noqa: E402
from smallmass.models import ModelSpec, limit_drift_fields, model_library  # noqa: E402

INTERACTION = [workloads.MEANFIELD_D1, workloads.MEANFIELD_D4]


def _ensembles(d, seed=3, B=3, N=9):
    return np.random.default_rng(seed).normal(0.0, 0.8, size=(B, N, d))


@pytest.mark.parametrize("model", INTERACTION, ids=["d1", "d4"])
def test_interaction_drifts_match_package(model):
    params = model["params"]
    X = _ensembles(int(params["d"]))
    _, S, S_t, _ = limit_drift_fields(model_library(ModelSpec(**model)), X)
    S_ref, S_t_ref = oracles.interaction_drifts(params, X)
    assert np.max(np.abs(S_ref)) > 1e-3 and np.max(np.abs(S_t_ref)) > 1e-3
    assert oracles.relative_gap(S, S_ref) <= oracles.DRIFT_RTOL
    assert oracles.relative_gap(S_t, S_t_ref) <= oracles.DRIFT_RTOL


@pytest.mark.parametrize("model", INTERACTION, ids=["d1", "d4"])
def test_sign_flipped_distribution_drift_is_flagged(model):
    params = model["params"]
    X = _ensembles(int(params["d"]))
    _, _, S_t, _ = limit_drift_fields(model_library(ModelSpec(**model)), X)
    _, S_t_ref = oracles.interaction_drifts(params, X)
    assert oracles.relative_gap(-S_t, S_t_ref) > 1.0


def test_interaction_drifts_at_a_single_particle_vanish_for_the_measure_term():
    # one particle: the only sample is the point itself, where grad_y psi = 0
    X = np.array([[[0.4]]])
    _, S_t = oracles.interaction_drifts(workloads.MEANFIELD_D1["params"], X)
    assert np.all(S_t == 0.0)


def test_overdamped_euler_matches_limit_path():
    model = model_library(ModelSpec(**workloads.OU))
    T, Delta, N, seed = 0.5, 0.01, 3, 17
    n = round(T / Delta)
    dw = NoiseDriver(seed, Delta, 1).fast_increments(2, N, 1, n)
    x0 = np.array([[0.3], [-0.1], [1.2]])
    want = oracles.overdamped_euler(workloads.OU["params"], Delta, dw, x0)
    got = run_limit_path(model, T, Delta, N, 2, seed, x0)
    assert oracles.relative_gap(got, want) <= oracles.PATH_RTOL


def test_overdamped_euler_flags_a_wrong_friction():
    model = model_library(ModelSpec(**workloads.OU))
    T, Delta, seed = 0.5, 0.01, 17
    dw = NoiseDriver(seed, Delta, 1).fast_increments(0, 1, 1, round(T / Delta))
    wrong = dict(workloads.OU["params"], gamma0=2.2)
    want = oracles.overdamped_euler(wrong, Delta, dw, np.zeros((1, 1)))
    got = run_limit_path(model, T, Delta, 1, 0, seed, 0.0)
    assert oracles.relative_gap(got, want) > 1e-3


def test_configs_depend_on_the_seed_only():
    w = workloads.WORKLOADS["meanfield-d1"]
    assert workloads.config_doc(w, 5, "x") == workloads.config_doc(w, 5, "x")
    assert workloads.config_doc(w, 5, "x") != workloads.config_doc(w, 6, "x")


def test_benchmark_json_names_what_the_benchmark_reports():
    import run
    import tracing

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    layers = run._layer_metrics(tracing.Tracer(), tracing.Tracer(), 1.0, 1.0, 0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()
    }


def test_tracer_self_times_add_up_and_originals_come_back():
    import smallmass.linalg
    import smallmass.models
    import tracing

    model = model_library(ModelSpec(**workloads.MEANFIELD_D4))
    original = smallmass.linalg.sylvester_batch
    tracer = tracing.Tracer()
    with tracer.installed():
        smallmass.models.limit_drift_fields(model, _ensembles(4, B=1, N=5))
    assert smallmass.linalg.sylvester_batch is original
    assert tracer.calls["sylvester_batch"] == tracer.calls["lyapunov_batch"] == 1
    assert tracer.counts["linalg.matrix_solves"] == 5 + 5 * 5   # J per particle, J~ per pair
    assert tracer.calls["SystemModel.friction_dmu_field"] == 1
    assert abs(sum(tracer.self_s.values()) - tracer.total_s[tracing.ROOT]) < 1e-9
