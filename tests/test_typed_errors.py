"""Every public entry point refuses a caller's impossible number, list,
array, measure, package object, family spec or model output with a typed
error, and one module holds the rule for numbers and arrays."""

import ast
import io
import pathlib

import numpy as np
import pytest

import smallmass
from smallmass import errors, linalg
from smallmass.convergence import (
    ConvergenceReport,
    DeltaRule,
    fit_rate,
    report_to_csv,
    report_to_json,
    run_convergence,
)
from smallmass.driver import NoiseDriver
from smallmass.dynamics import (
    ParticleEnsembleFull,
    ParticleEnsembleLimit,
    ProbeConfig,
    diagnostics_velocity,
    run_limit_path,
    simulate_coupled,
    step_full_em,
    step_full_exponential,
    step_limit_em,
    validate_assumptions,
    write_path_csv,
)
from smallmass.errors import ValidationError
from smallmass.measures import EmpiricalMeasure, second_moment, wasserstein2_assignment
from smallmass.models import (
    ModelSpec,
    SystemModel,
    drift_S,
    drift_S_tilde,
    gamma_inv_dmu,
    gamma_inv_dx,
    limit_drift_fields,
    model_library,
)

SIMULATE = dict(eps=0.05, T=0.05, delta=0.0025, Delta=0.01, n_particles=1, replica_id=0, seed=0)
DIAGNOSTICS = dict(eps=0.05, T=0.1, delta=0.0025, replicas=2, seed=0)
CONVERGE = dict(eps_list=[0.1, 0.05], T=0.1, n_particles=1, replicas=2, seed=0,
                delta_rule=DeltaRule(), Delta=0.01, validate=False)
LIMIT = dict(T=0.05, Delta=0.01, n_particles=1, replica_id=0, seed=0)


def model():
    return model_library(ModelSpec("constant", {"gamma0": 2.0}))


def full(x=((0.0,),), v=((0.0,),), eps=0.1):
    return ParticleEnsembleFull(0.0, eps, x, v)


def limit():
    return ParticleEnsembleLimit(0.0, [[0.0]])


def misshapen(trailing):
    """A d = 2 interaction model whose two derivatives end in ``trailing``
    after their point axes, in place of (2, 2) or (2, 2, 2)."""
    base = model_library(ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 2}))
    return SystemModel(2, 2, base._force, base._noise, base._friction,
                       lambda X, S: np.zeros(X.shape[:2] + trailing),
                       lambda X, S, Y: np.zeros(X.shape[:2] + (Y.shape[1],) + trailing))


MU2 = EmpiricalMeasure([[0.1, 0.0], [0.3, -0.2]])
DERIVATIVE_READERS = {
    "drift-fields": lambda m: limit_drift_fields(m, np.zeros((1, 3, 2))),
    "drift-S": lambda m: drift_S(m, [0.1, 0.2], MU2),
    "drift-S-tilde": lambda m: drift_S_tilde(m, [0.1, 0.2], MU2),
    "inverse-dx": lambda m: gamma_inv_dx(m, [0.1, 0.2], MU2),
    "inverse-dmu": lambda m: gamma_inv_dmu(m, [0.1, 0.2], MU2, [0.3, -0.2]),
    "validate": validate_assumptions,
}
DERIVATIVE_SHAPES = {"rank": (2,), "trailing-axes": (2, 2, 3)}


def miscoefficient(wrong):
    """A d = 2 interaction model whose force, noise or friction has the wrong
    shape, or whose (2, 2) noise is declared with k = 3."""
    base = model_library(ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 2}))
    coefficients = {"force": base._force, "noise": base._noise, "friction": base._friction}
    if wrong != "noise-k":
        coefficients[wrong] = {"force": lambda X, S: -X[..., 0],                  # (B, m)
                               "noise": lambda X, S: np.ones(X.shape),             # (B, m, d)
                               "friction": lambda X, S: 2.0 + np.tanh(X)}[wrong]   # (B, m, d)
    return SystemModel(2, 3 if wrong == "noise-k" else 2, *coefficients.values(),
                       base._friction_dx, base._friction_dmu)


COEFFICIENT_READERS = {
    "drift-fields": lambda m: limit_drift_fields(m, np.zeros((1, 3, 2))),
    "validate": validate_assumptions,
}

# the eight readers of a caller's array, each given ``value``
ARRAY_READERS = {
    "ensemble-x": lambda value: full(x=value),
    "limit-ensemble-x": lambda value: ParticleEnsembleLimit(0.0, value),
    "step-increment": lambda value: step_full_em(full(), model(), 0.001, value),
    "sylvester-matrix": lambda value: linalg.solve_sylvester(value, [[1.0]], [[1.0]]),
    "expm-stack": linalg.expm,
    "measure": EmpiricalMeasure,
    "point-state": lambda value: model().friction(value, EmpiricalMeasure([[0.1]])),
    "drift-fields-points": lambda value: limit_drift_fields(model(), [value]),   # (1, m, d)
}
NOT_FLOATS = {
    "bool": [[True]],
    "numeric-string": [["1"]],
    "huge-integer": [[10**400]],
    "ragged": [[0.0], [1.0, 2.0]],
    "None": None,
}


CASES = {
    # a string, None or a bool where a mass, a step or a constant belongs
    "simulate-eps-string": lambda: simulate_coupled(model(), **{**SIMULATE, "eps": "0.1"}),
    "simulate-T-string": lambda: simulate_coupled(model(), **{**SIMULATE, "T": "0.1"}),
    "simulate-Delta-string": lambda: simulate_coupled(model(), **{**SIMULATE, "Delta": "0.01"}),
    "simulate-delta-None": lambda: simulate_coupled(model(), **{**SIMULATE, "delta": None}),
    "simulate-kappa-string": lambda: simulate_coupled(model(), **SIMULATE, kappa="20"),
    "simulate-eps-bool": lambda: simulate_coupled(model(), **{**SIMULATE, "eps": True}),
    "diagnostics-eps-string": lambda: diagnostics_velocity(model(), **{**DIAGNOSTICS, "eps": "0.1"}),
    "diagnostics-T-string": lambda: diagnostics_velocity(model(), **{**DIAGNOSTICS, "T": "0.1"}),
    "diagnostics-delta-None": lambda: diagnostics_velocity(model(), **{**DIAGNOSTICS, "delta": None}),
    "diagnostics-kappa-string": lambda: diagnostics_velocity(model(), **DIAGNOSTICS, kappa="20"),
    "diagnostics-eps-bool": lambda: diagnostics_velocity(model(), **{**DIAGNOSTICS, "eps": True}),
    "converge-T-string": lambda: run_convergence(model(), **{**CONVERGE, "T": "1"}),
    "converge-T-huge": lambda: run_convergence(model(), **{**CONVERGE, "T": 10**400}),
    "converge-Delta-None": lambda: run_convergence(model(), **{**CONVERGE, "Delta": None}),
    "converge-eps-string": lambda: run_convergence(model(), **{**CONVERGE, "eps_list": ["a"]}),
    "converge-eps-number": lambda: run_convergence(model(), **{**CONVERGE, "eps_list": 0.1}),
    "converge-eps-empty": lambda: run_convergence(model(), **{**CONVERGE, "eps_list": []}),
    "limit-T-string": lambda: run_limit_path(model(), **{**LIMIT, "T": "1"}),
    "limit-T-bool": lambda: run_limit_path(model(), **{**LIMIT, "T": True, "Delta": 0.5}),
    "limit-Delta-numpy-bool": lambda: run_limit_path(model(), **{**LIMIT, "T": 1.0, "Delta": np.True_}),
    "resolve-eps-string": lambda: DeltaRule().resolve("0.1", 0.01),
    "step-em-string": lambda: step_full_em(full(), model(), "0.001", [[0.0]]),
    "step-exponential-string": lambda: step_full_exponential(full(), model(), "0.01", [[0.0]]),
    "step-limit-string": lambda: step_limit_em(limit(), model(), "0.01", [[0.0]]),
    "ensemble-eps-string": lambda: full(eps="0.1"),
    "ensemble-t-string": lambda: ParticleEnsembleFull("0", 0.1, [[0.0]], [[0.0]]),
    "limit-ensemble-t-None": lambda: ParticleEnsembleLimit(None, [[0.0]]),
    "union-Delta-string": lambda: NoiseDriver.union(0, "0.1", [2]),
    "driver-step-bool": lambda: NoiseDriver(0, True),
    # the probe box
    "probe-lo-nan": lambda: validate_assumptions(model(), ProbeConfig(lo=float("nan"))),
    "probe-lo-string": lambda: validate_assumptions(model(), ProbeConfig(lo="a")),
    "probe-box-reversed": lambda: validate_assumptions(model(), ProbeConfig(lo=3.0, hi=-3.0)),
    # the counts of a draw
    "draw-n_steps-float": lambda: NoiseDriver(0, 0.1).fast_increments(0, 1, 1, 2.5),
    "draw-n_steps-negative": lambda: NoiseDriver(0, 0.1).fast_increments(0, 1, 1, -1),
    "draw-n_particles-float": lambda: NoiseDriver(0, 0.1).fast_increments(0, 1.5, 1, 2),
    "blocks-n_windows-float": lambda: next(NoiseDriver(0, 0.1).blocks([0], 1, 1, 2.5)),
    # arrays and measures
    "measure-string": lambda: EmpiricalMeasure("ab"),
    "measure-ragged": lambda: EmpiricalMeasure([[0.0], [1.0, 2.0]]),
    "ensemble-x-string": lambda: full(x="a"),
    "limit-ensemble-ragged": lambda: ParticleEnsembleLimit(0.0, [[0.0], [1.0, 2.0]]),
    "step-em-increment-string": lambda: step_full_em(full(), model(), 0.001, "a"),
    "lyapunov-string": lambda: linalg.solve_lyapunov("a", [[1.0]]),
    "lyapunov-ragged": lambda: linalg.solve_lyapunov([[2.0, 0.0], [1.0]], np.eye(2)),
    "quadrature-tol-string": lambda: linalg.lyapunov_by_quadrature([[2.0]], [[1.0]], "a"),
    "friction-measure-list": lambda: model().friction(0.1, [[0.1]]),
    "drift-measure-list": lambda: drift_S(model(), 0.1, [[0.1]]),
    "w2-measure-list": lambda: wasserstein2_assignment([[0.0]], [[1.0]]),
    # a model or a probe configuration that is not one
    "probe-None": lambda: validate_assumptions(model(), None),
    "validate-model-None": lambda: validate_assumptions(None),
    "simulate-model-None": lambda: simulate_coupled(None, **SIMULATE),
    "diagnostics-model-None": lambda: diagnostics_velocity(None, **DIAGNOSTICS),
    "converge-model-spec": lambda: run_convergence(ModelSpec("constant", {}), **CONVERGE),
    "limit-model-None": lambda: run_limit_path(None, **LIMIT),
    "drift-fields-model-None": lambda: limit_drift_fields(None, np.zeros((1, 1, 1))),
    "drift-model-None": lambda: drift_S(None, 0.1, EmpiricalMeasure([[0.1]])),
    "inverse-derivative-model-None": lambda: gamma_inv_dx(None, 0.1, EmpiricalMeasure([[0.1]])),
    "step-model-None": lambda: step_full_em(full(), None, 0.001, [[0.0]]),
    "step-limit-model-None": lambda: step_limit_em(limit(), None, 0.01, [[0.0]]),
    # a package object that is not one
    "fit-rate-None": lambda: fit_rate(None),
    "fit-rate-epsilon-string": lambda: fit_rate(ConvergenceReport(
        None, ["0.1", "0.05", "0.01"], [0.1, 0.05, 0.01], [0.0] * 3, 2, 1)),
    "report-json-string": lambda: report_to_json("report"),
    "report-csv-None": lambda: report_to_csv(None),
    "path-csv-None": lambda: write_path_csv(io.StringIO(), None, 0),
    "second-moment-list": lambda: second_moment([[0.0]]),
    "model-library-string": lambda: model_library("constant"),
    # a family spec that is not one
    "spec-family-list": lambda: model_library(ModelSpec(["x"])),
    "spec-params-None": lambda: model_library(ModelSpec("constant", None)),
    "spec-params-list": lambda: model_library(ModelSpec("constant", ["a", "b"])),
    # an array numpy does not store as numbers
    **{f"{reader}-{kind}": lambda call=call, value=value: call(value)
       for reader, call in ARRAY_READERS.items() for kind, value in NOT_FLOATS.items()},
    # a force, noise or friction of the wrong shape
    **{f"{reader}-{wrong}": lambda call=call, wrong=wrong: call(miscoefficient(wrong))
       for reader, call in COEFFICIENT_READERS.items()
       for wrong in ("force", "noise", "friction", "noise-k")},
    # a model derivative of the wrong rank or trailing axes
    **{f"{reader}-derivative-{wrong}": lambda call=call, trailing=trailing: call(misshapen(trailing))
       for reader, call in DERIVATIVE_READERS.items()
       for wrong, trailing in DERIVATIVE_SHAPES.items()},
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_no_public_entry_point_leaks_an_untyped_error(call):
    # each of these once raised TypeError, ValueError, AttributeError,
    # OverflowError or numpy's DTypePromotionError, or ran: a bool mass,
    # step or horizon as 1.0, a derivative of the wrong shape as if it fit
    with pytest.raises(ValidationError):
        call()


def test_a_probe_box_of_one_point_stays_legal():
    report = validate_assumptions(model(), ProbeConfig(lo=0.5, hi=0.5))
    assert report.friction.shape[1] == ProbeConfig().n_states


@pytest.mark.parametrize("value, want", [
    (2, 2.0), (np.int64(3), 3.0), (np.float32(0.5), 0.5), (-1.5, -1.5),
])
def test_real_takes_python_and_numpy_numbers(value, want):
    got = errors.real(value, "x")
    assert type(got) is float and got == want


@pytest.mark.parametrize("value, positive, needle", [
    (True, False, "must be a number"),
    (np.bool_(True), False, "must be a number"),
    ("1", False, "must be a number"),
    (None, False, "must be a number"),
    (10**400, False, "is beyond the float range"),
    (float("nan"), False, "must be finite"),
    (float("-inf"), False, "must be finite"),
    (0.0, True, "must be positive and finite"),
    (-2, True, "must be positive and finite"),
], ids=["bool", "numpy-bool", "string", "None", "huge-integer", "nan", "-inf", "zero", "negative"])
def test_real_refuses(value, positive, needle):
    with pytest.raises(ValidationError, match=f"^x {needle}"):
        errors.real(value, "x", positive=positive)


def test_instance_hands_back_what_it_checked():
    probe = ProbeConfig()
    assert errors.instance(probe, ProbeConfig, "probe") is probe
    with pytest.raises(ValidationError, match="^probe must be a ProbeConfig, got dict$"):
        errors.instance({}, ProbeConfig, "probe")


def test_array_reads_every_entry_and_keeps_the_shape():
    got = errors.array([[1, 2.5], (np.int64(3), np.float64(-0.0))], "x")
    assert got.dtype == float and got.shape == (2, 2)
    assert got.tolist() == [[1.0, 2.5], [3.0, -0.0]] and np.signbit(got[1, 1])
    assert errors.array(np.arange(3), "x").tolist() == [0.0, 1.0, 2.0]
    assert errors.array(4, "x").shape == ()
    for value, needle in (([[1.0], [1.0, 2.0]], "ragged"), ([1.0, True], "must be a number"),
                          (np.array([True]), "must be a number"), ([[np.nan]], "finite")):
        with pytest.raises(ValidationError, match=needle):
            errors.array(value, "x")


def test_only_the_errors_module_reads_what_a_number_is():
    # a sixth hand-written copy of the rule would import numbers again
    importers = []
    for path in sorted(pathlib.Path(smallmass.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "numbers" in names:
                importers.append(path.name)
    assert importers == ["errors.py"]


def test_floats_hands_back_a_float_array_as_it_is():
    X = np.zeros((2, 3, 1))
    assert errors.floats(X, "x") is X
    got = errors.floats([[1, 2]], "x")
    assert got.dtype == float and got.tolist() == [[1.0, 2.0]]
    assert errors.floats(np.float32(0.5), "x").dtype == float
    assert np.isnan(errors.floats([np.nan], "x")).all()   # finiteness is the caller's
    for value, needle in ((NOT_FLOATS["ragged"], "is a ragged list"),
                          (NOT_FLOATS["bool"], "must be an array of numbers, got dtype bool")):
        with pytest.raises(ValidationError, match=f"^x {needle}$"):
            errors.floats(value, "x")


def test_only_the_errors_module_converts_an_array_in_a_try():
    # a hand-written copy of ``errors.floats`` wraps np.asarray in a try
    sites = []
    for path in sorted(pathlib.Path(smallmass.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Try) and any(
                isinstance(n, ast.Attribute) and n.attr == "asarray"
                for statement in node.body for n in ast.walk(statement)
            ):
                sites.append(path.name)
    assert set(sites) == {"errors.py"}
