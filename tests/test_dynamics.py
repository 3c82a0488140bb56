import functools
import operator
import tracemalloc

import numpy as np
import pytest

from smallmass import driver, dynamics, linalg, models
from smallmass.convergence import DeltaRule, run_convergence
from smallmass.driver import NoiseDriver
from smallmass.dynamics import (
    BLOWUP_CAP,
    DEFAULT_KAPPA,
    ParticleEnsembleFull,
    ParticleEnsembleLimit,
    ProbeConfig,
    _advance_full_em,
    _advance_full_exponential,
    _guard,
    _replica_batches,
    _run_replicas,
    diagnostics_velocity,
    run_limit_path,
    simulate_coupled,
    step_full_em,
    step_full_exponential,
    step_limit_em,
    validate_assumptions,
)
from smallmass.errors import (
    AssumptionViolated,
    GridMismatch,
    NonFinite,
    NumericalBlowup,
    SizeLimitExceeded,
    StepTooLarge,
    ValidationError,
)
from smallmass.measures import EmpiricalMeasure, wasserstein2_assignment
from smallmass.models import ModelSpec, SystemModel, model_library


def constant_model(gamma=2.0, K=1.0, sigma=1.0, d=1):
    return model_library(
        ModelSpec("constant", {"gamma0": gamma, "K": K, "sigma": sigma, "d": d})
    )


def free_model(gamma=2.0, d=1):
    """F = 0, sigma unused-but-present; friction constant."""
    return SystemModel(
        dim=d,
        noise_dim=1,
        force=lambda X, S: np.zeros_like(X),
        noise=lambda X, S: np.zeros(X.shape + (1,)),
        friction=lambda X, S: np.broadcast_to(gamma * np.eye(d), X.shape + (d,)),
    )


def cubic_model():
    """F = x^3 with unit friction and no noise: explodes from x = 5."""
    return SystemModel(
        dim=1,
        noise_dim=1,
        force=lambda X, S: X ** 3,
        noise=lambda X, S: np.zeros(X.shape + (1,)),
        friction=lambda X, S: np.broadcast_to(np.eye(1), X.shape + (1,)),
    )


class TestFullSteppers:
    def test_rest_state_unchanged(self):
        model = free_model()
        ens = ParticleEnsembleFull(0.0, 0.1, np.array([[1.5]]), np.array([[0.0]]))
        out = step_full_em(ens, model, 0.001, np.zeros((1, 1)))
        assert np.array_equal(out.x, ens.x)
        assert np.array_equal(out.v, ens.v)
        assert out.t == pytest.approx(0.001)

    def test_explicit_velocity_multiplier(self):
        g, eps, delta = 3.0, 0.5, 0.02
        model = free_model(gamma=g)
        ens = ParticleEnsembleFull(0.0, eps, np.array([[0.0]]), np.array([[2.0]]))
        out = step_full_em(ens, model, delta, np.zeros((1, 1)))
        assert out.v[0, 0] == pytest.approx((1.0 - g * delta / eps) * 2.0, abs=1e-15)
        assert out.x[0, 0] == pytest.approx(2.0 * delta, abs=1e-15)

    def test_step_too_large(self):
        model = free_model()
        ens = ParticleEnsembleFull(0.0, 0.1, np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(StepTooLarge):
            step_full_em(ens, model, 0.1, np.zeros((1, 1)))

    def test_step_just_above_the_explicit_bound_is_refused(self):
        # eps/kappa = 0.005, exceeded by 1e-6 relative: above the tolerance
        # that lets a snapped step through
        ens = ParticleEnsembleFull(0.0, 0.1, np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(StepTooLarge):
            step_full_em(ens, free_model(), 0.1 / 20.0 * (1 + 1e-6), np.zeros((1, 1)))

    # NaN and inf once passed the mass check; a NaN or inf Delta in the limit
    # step once ended in NumericalBlowup
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_mass_and_limit_step_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValidationError, match="positive and finite"):
            ParticleEnsembleFull(0.0, bad, np.zeros((1, 1)), np.zeros((1, 1)))
        ens = ParticleEnsembleLimit(0.0, np.zeros((1, 1)))
        with pytest.raises(ValidationError, match="positive and finite"):
            step_limit_em(ens, constant_model(), bad, np.zeros((1, 1)))

    def test_exponential_scalar_semigroup(self):
        g, eps = 4.0, 0.01
        model = free_model(gamma=g)
        for delta in (0.001, 0.1, 2.0):  # delta/eps from 0.1 to 200
            ens = ParticleEnsembleFull(0.0, eps, np.zeros((1, 1)), np.array([[1.0]]))
            out = step_full_exponential(ens, model, delta, np.zeros((1, 1)))
            assert out.v[0, 0] == pytest.approx(np.exp(-g * delta / eps), rel=1e-13)

    def test_exponential_zero_step_is_identity(self):
        model = free_model()
        ens = ParticleEnsembleFull(0.3, 0.1, np.array([[1.0]]), np.array([[2.0]]))
        out = step_full_exponential(ens, model, 0.0, np.zeros((1, 1)))
        assert np.array_equal(out.x, ens.x) and np.array_equal(out.v, ens.v)
        assert out.t == ens.t

    def test_exponential_exact_decay_along_path(self):
        # deterministic linear test: v_n = e^{-gamma t_n / eps} v_0 at every
        # grid point, for step sizes well beyond the explicit stability bound
        g, eps, v0 = 2.5, 0.001, 3.0
        model = free_model(gamma=g)
        for delta in (0.01, 0.25):
            ens = ParticleEnsembleFull(0.0, eps, np.zeros((1, 1)), np.array([[v0]]))
            for n in range(1, 21):
                ens = step_full_exponential(ens, model, delta, np.zeros((1, 1)))
                exact = np.exp(-g * n * delta / eps) * v0
                assert abs(ens.v[0, 0] - exact) <= 1e-12 * max(abs(exact), 1.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_exponential_rejects_nonfinite_friction(self, d):
        ens = ParticleEnsembleFull(0.0, 0.1, np.zeros((1, d)), np.zeros((1, d)))
        with pytest.raises(NonFinite):
            step_full_exponential(ens, free_model(gamma=np.nan, d=d), 0.01, np.zeros((1, 1)))

    def test_blowup_guard(self):
        ens = ParticleEnsembleFull(0.0, 1.0, np.array([[5.0]]), np.array([[0.0]]))
        with pytest.raises(NumericalBlowup):
            for _ in range(10000):
                ens = step_full_em(ens, cubic_model(), 0.05, np.zeros((1, 1)))

    def test_increment_of_the_wrong_shape_is_rejected(self):
        ens = ParticleEnsembleFull(0.0, 0.1, np.array([[1.5]]), np.array([[0.0]]))
        with pytest.raises(ValidationError, match="increment must have shape"):
            step_full_em(ens, free_model(), 0.001, np.zeros((1, 2)))

    def test_exponential_step_rejects_a_negative_step(self):
        ens = ParticleEnsembleFull(0.0, 0.1, np.array([[1.5]]), np.array([[0.0]]))
        with pytest.raises(ValidationError, match="nonnegative"):
            step_full_exponential(ens, free_model(), -0.001, np.zeros((1, 1)))

    def test_ensemble_needs_an_n_by_d_state(self):
        with pytest.raises(ValidationError, match="matching"):
            ParticleEnsembleFull(0.0, 0.1, np.array([1.5]), np.array([0.0]))


class TestGuard:
    # one reduction, np.abs(arr).max(), and one comparison that NaN fails
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(BLOWUP_CAP, np.inf),
                                     -2.0 * BLOWUP_CAP])
    def test_raises(self, bad):
        arr = np.array([[[0.5], [-3.0]], [[bad], [1.0]]])
        with pytest.raises(NumericalBlowup, match="velocity reached magnitude"):
            _guard(arr, "velocity")

    def test_nan_among_finite_values_raises(self):
        arr = np.linspace(-1.0, 1.0, 64).reshape(8, 8, 1)
        arr[5, 3, 0] = np.nan
        with pytest.raises(NumericalBlowup, match="nan"):
            _guard(arr, "position")

    @pytest.mark.parametrize("arr", [
        np.array([[[BLOWUP_CAP]]]),
        np.array([[[-BLOWUP_CAP], [0.0]]]),
        np.zeros((0, 3, 1)),
        np.zeros((2, 0, 2)),
        np.array([[[-0.0]]]),
    ])
    def test_passes(self, arr):
        _guard(arr, "velocity")


class TestLimitStepper:
    def test_rest_state_unchanged(self):
        model = free_model()
        ens = ParticleEnsembleLimit(0.0, np.array([[0.7]]))
        out = step_limit_em(ens, model, 0.05, np.zeros((1, 1)))
        assert np.array_equal(out.x, ens.x)

    def test_ensemble_state_must_be_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            ParticleEnsembleLimit(0.0, np.array([[0.7], [np.nan]]))

    def test_constant_family_reduces_to_overdamped_euler(self):
        model = constant_model(gamma=2.0, K=1.5, sigma=0.8, d=2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2))
        dw = rng.normal(size=(3, 2))
        out = step_limit_em(ParticleEnsembleLimit(0.0, x), model, 0.01, dw)
        ginv = np.linalg.inv(2.0 * np.eye(2))
        expected = (
            x
            + np.einsum("ij,nj->ni", ginv, -1.5 * x) * 0.01
            + np.einsum("ij,jk,nk->ni", ginv, 0.8 * np.eye(2), dw)
        )
        assert np.abs(out.x - expected).max() <= 1e-15

    def test_scalar_state_one_step_drift_from_origin(self):
        # from x = 0: F(0) = 0 and the whole deterministic move is S*Delta
        model = model_library(ModelSpec("scalar-state", {"a": 2.0, "b": 1.0}))
        ens = ParticleEnsembleLimit(0.0, np.array([[0.0]]))
        out = step_limit_em(ens, model, 0.1, np.zeros((1, 1)))
        assert out.x[0, 0] == pytest.approx(-0.0625 * 0.1, abs=1e-15)

    def test_blowup_guard(self):
        model = constant_model(gamma=1.0, K=4.0)
        ens = ParticleEnsembleLimit(0.0, np.array([[1.0]]))
        with pytest.raises(NumericalBlowup):
            for _ in range(100):
                ens = step_limit_em(ens, model, 1.0, np.zeros((1, 1)))


class TestWholeRunBlowup:
    # the run-level entry points stop with NumericalBlowup, not with inf/nan
    # results or an overflow warning, whichever system explodes first

    @pytest.mark.parametrize("scheme", ["explicit", "exponential"])
    def test_simulate_coupled(self, scheme):
        with pytest.raises(NumericalBlowup):
            simulate_coupled(
                cubic_model(), eps=1.0, T=20.0, delta=0.05, Delta=0.1,
                n_particles=1, replica_id=0, seed=0, x0=5.0, scheme=scheme,
            )

    @pytest.mark.parametrize("scheme", ["explicit", "exponential"])
    def test_diagnostics_velocity(self, scheme):
        with pytest.raises(NumericalBlowup):
            diagnostics_velocity(
                cubic_model(), eps=1.0, T=20.0, delta=0.05, replicas=2, seed=0,
                x0=5.0, scheme=scheme,
            )

    def test_run_limit_path(self):
        with pytest.raises(NumericalBlowup):
            run_limit_path(
                cubic_model(), T=20.0, Delta=0.1, n_particles=1, replica_id=0,
                seed=0, x0=5.0,
            )


class TestRunInputValidation:
    # a typed ValidationError before any step, not a ZeroDivisionError or
    # numpy's "zero-size array" ValueError, and no silent acceptance

    @pytest.mark.parametrize("n_record", [0, -1])
    def test_diagnostics_rejects_n_record_below_one(self, n_record):
        with pytest.raises(ValidationError, match="n_record"):
            diagnostics_velocity(
                constant_model(), 0.05, T=0.1, delta=0.0025, replicas=2, seed=0,
                n_record=n_record,
            )

    def test_diagnostics_rejects_a_single_replica(self):
        with pytest.raises(ValidationError, match="replicas"):
            diagnostics_velocity(constant_model(), 0.05, T=0.1, delta=0.0025, replicas=1, seed=0)

    def test_simulate_coupled_rejects_an_unknown_scheme(self):
        with pytest.raises(ValidationError, match="unknown scheme"):
            simulate_coupled(
                constant_model(), eps=0.1, T=0.05, delta=0.005, Delta=0.01,
                n_particles=1, replica_id=0, seed=0, scheme="implicit",
            )

    # each once a TypeError or ValueError from deeper down, or a silent
    # truncation: SystemModel(1.5, ...) built a d = 1 model; a NaN probe bound
    # once raised OverflowError, a string one numpy's DTypePromotionError
    @pytest.mark.parametrize("call", [
        lambda: run_convergence(constant_model(), [0.1, 0.05], 0.05, 1, 2.5, 0, DeltaRule(), 0.01),
        lambda: run_convergence(constant_model(), [0.1, 0.05], 0.05, 1.5, 2, 0, DeltaRule(), 0.01),
        lambda: run_convergence(constant_model(), [0.1, 0.05], 0.05, 1, 2, 0, DeltaRule(), 0.01,
                                threads="2"),
        lambda: diagnostics_velocity(constant_model(), 0.05, 0.1, 0.0025, 2.5, 0),
        lambda: diagnostics_velocity(constant_model(), 0.05, 0.1, 0.0025, 2, 0, n_record=2.5),
        lambda: SystemModel(1.5, 1, None, None, None),
        lambda: SystemModel("2", 1, None, None, None),
        lambda: DeltaRule(kappa="20"),
        lambda: validate_assumptions(constant_model(), ProbeConfig(n_states=0)),
        lambda: ProbeConfig(n_measures=0),
        lambda: validate_assumptions(constant_model(), ProbeConfig(lo=float("nan"))),
        lambda: validate_assumptions(constant_model(), ProbeConfig(lo="a")),
        lambda: validate_assumptions(constant_model(), ProbeConfig(lo=3.0, hi=-3.0)),
    ], ids=[
        "run_convergence-replicas", "run_convergence-n_particles", "run_convergence-threads",
        "diagnostics-replicas", "diagnostics-n_record", "SystemModel-float-dim",
        "SystemModel-string-dim", "DeltaRule-string-kappa", "probe-n_states", "probe-n_measures",
        "probe-lo-nan", "probe-lo-string", "probe-box-reversed",
    ])
    def test_a_count_that_is_not_an_integer_in_range_is_a_validation_error(self, call):
        with pytest.raises(ValidationError):
            call()

    # 1.5 once ran replica 1, 2.9 replica 2 and True replica 1
    @pytest.mark.parametrize("replica_id", [1.5, 2.9, True])
    @pytest.mark.parametrize("run", [simulate_coupled, run_limit_path])
    def test_a_replica_id_that_is_not_an_integer_is_rejected(self, run, replica_id):
        kwargs = dict(T=0.05, Delta=0.01, n_particles=1, replica_id=replica_id, seed=0)
        if run is simulate_coupled:
            kwargs.update(eps=0.05, delta=0.0025)
        with pytest.raises(ValidationError, match="replica id must be an integer"):
            run(constant_model(), **kwargs)

    def test_a_numpy_integer_replica_id_runs_that_replica(self):
        model, kwargs = constant_model(), dict(T=0.05, Delta=0.01, n_particles=1, seed=0)
        got, want = (run_limit_path(model, replica_id=r, **kwargs) for r in (np.int64(2), 2))
        assert np.array_equal(got, want)
        got, want = (simulate_coupled(model, 0.05, delta=0.0025, replica_id=r, **kwargs).sup_diff
                     for r in (np.uint32(2), 2))
        assert got == want

    @pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan"), float("inf")])
    def test_diagnostics_rejects_kappa_that_is_not_positive_and_finite(self, kappa):
        # kappa = 0 once ended in a ZeroDivisionError, and NaN turned the
        # explicit step bound off
        with pytest.raises(ValidationError, match="kappa"):
            diagnostics_velocity(
                constant_model(), 0.05, T=0.1, delta=0.0025, replicas=2, seed=0,
                kappa=kappa,
            )

    def test_diagnostics_replica_count_beyond_memory(self):
        # once numpy's bare ValueError("array is too big")
        with pytest.raises(SizeLimitExceeded, match="replicas"):
            diagnostics_velocity(
                constant_model(), 0.05, T=0.1, delta=0.0025, replicas=2**62, seed=0,
            )

    @pytest.mark.parametrize("n_particles", [0, -1])
    def test_diagnostics_rejects_empty_ensemble(self, n_particles):
        with pytest.raises(ValidationError, match="n_particles"):
            diagnostics_velocity(
                constant_model(), 0.05, T=0.1, delta=0.0025, replicas=2, seed=0,
                n_particles=n_particles,
            )

    @pytest.mark.parametrize("n_particles", [0, -1])
    def test_simulate_coupled_rejects_empty_ensemble(self, n_particles):
        with pytest.raises(ValidationError, match="n_particles"):
            simulate_coupled(
                constant_model(), eps=0.1, T=0.05, delta=0.005, Delta=0.01,
                n_particles=n_particles, replica_id=0, seed=0,
            )

    @pytest.mark.parametrize("n_particles", [0, -1])
    def test_run_convergence_rejects_empty_ensemble(self, n_particles):
        # 0 once ended in a ZeroDivisionError while sizing the replica batches
        with pytest.raises(ValidationError, match="n_particles"):
            run_convergence(
                constant_model(), [0.1, 0.05], T=0.05, n_particles=n_particles,
                replicas=2, seed=0, delta_rule=DeltaRule(), Delta=0.01,
            )

    @pytest.mark.parametrize("n_particles", [0, -1])
    def test_run_limit_path_rejects_empty_ensemble(self, n_particles):
        with pytest.raises(ValidationError, match="n_particles"):
            run_limit_path(
                constant_model(), T=0.05, Delta=0.01, n_particles=n_particles,
                replica_id=0, seed=0,
            )

    # the CLI checks these values before any run; the Python entry points
    # check them in the one-step kernel and in the grid ratio
    @pytest.mark.parametrize("entry, change, error", [
        ("diagnostics", {"eps": 0.0, "scheme": "exponential"}, ValidationError),
        ("diagnostics", {"eps": -0.05, "scheme": "exponential"}, ValidationError),
        ("diagnostics", {"eps": np.inf, "scheme": "exponential"}, ValidationError),
        ("diagnostics", {"delta": 0.0}, ValidationError),
        ("diagnostics", {"delta": np.nan}, ValidationError),
        ("simulate", {"eps": 0.0, "scheme": "exponential"}, ValidationError),
        ("simulate", {"eps": np.nan, "scheme": "exponential"}, ValidationError),
        ("simulate", {"delta": 0.0}, ValidationError),
        ("limit", {"Delta": 0.0}, GridMismatch),
        ("limit", {"Delta": np.nan}, GridMismatch),
        ("limit", {"T": np.inf}, GridMismatch),
    ], ids=[
        "diagnostics-eps-0", "diagnostics-eps-negative", "diagnostics-eps-inf",
        "diagnostics-delta-0", "diagnostics-delta-nan", "simulate-eps-0",
        "simulate-eps-nan", "simulate-delta-0", "limit-Delta-0", "limit-Delta-nan",
        "limit-T-inf",
    ])
    def test_impossible_mass_or_step_is_a_typed_error(self, entry, change, error):
        run, kwargs = {
            "diagnostics": (diagnostics_velocity, dict(
                eps=0.05, T=0.1, delta=0.0025, replicas=2, seed=0)),
            "simulate": (simulate_coupled, dict(
                eps=0.05, T=0.05, delta=0.0025, Delta=0.01, n_particles=1,
                replica_id=0, seed=0)),
            "limit": (run_limit_path, dict(
                T=0.05, Delta=0.01, n_particles=1, replica_id=0, seed=0)),
        }[entry]
        with pytest.raises(error, match="positive and finite|not a positive integer"):
            run(constant_model(), **{**kwargs, **change})


class TestStartState:
    def test_broadcast_view_allocates_nothing_of_size_n(self):
        tracemalloc.start()
        try:
            x = dynamics._state_array([0.5, -1.0], 10**7, 2, "x0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (10**7, 2) and not x.flags.writeable
        assert x[123456].tolist() == [0.5, -1.0]
        assert peak < 100_000

    @pytest.mark.parametrize("value", [[1.0, 2.0, 3.0], np.zeros((3, 1)), [[0.0, np.nan]]])
    def test_shape_and_finiteness_checked(self, value):
        with pytest.raises(ValidationError, match="x0"):
            dynamics._state_array(value, 2, 2, "x0")

    def test_copies_keep_every_bit(self):
        x = dynamics._start(dynamics._state_array([-0.0, 5e-324], 3, 2, "x0"), 2, "x0")
        assert x.shape == (2, 3, 2) and x.flags.writeable
        assert np.signbit(x[..., 0]).all() and (x[..., 1] == 5e-324).all()

    # 2**50 particles need 2**53 bytes a replica, which no host holds; once
    # numpy's untyped MemoryError from the copy of the start state
    @pytest.mark.parametrize("entry", ["simulate", "simulate-paths", "limit", "diagnostics"])
    def test_particle_count_beyond_memory_is_a_typed_error(self, entry):
        run, kwargs = {
            "simulate": (simulate_coupled, dict(
                eps=0.05, T=0.05, delta=0.0025, Delta=0.01, replica_id=0, seed=0)),
            "simulate-paths": (simulate_coupled, dict(
                eps=0.05, T=0.05, delta=0.0025, Delta=0.01, replica_id=0, seed=0,
                record_paths=True)),
            "limit": (run_limit_path, dict(T=0.05, Delta=0.01, replica_id=0, seed=0)),
            "diagnostics": (diagnostics_velocity, dict(
                eps=0.05, T=0.1, delta=0.0025, replicas=2, seed=0)),
        }[entry]
        with pytest.raises(SizeLimitExceeded, match="too many to hold"):
            run(constant_model(), n_particles=2**50, **kwargs)


class TestExplicitDamping:
    # the factor |1 - gamma/20| of one step: 0.9, 0.95, 1 (not shrinking), 1.5
    @pytest.mark.parametrize(
        "gamma, ok", [(2.0, True), (39.0, True), (40.0, False), (50.0, False)]
    )
    def test_factor_of_one_step(self, gamma, ok):
        gammas = np.full((2, 3, 1, 1), gamma)
        if ok:
            dynamics._check_explicit_damping(gammas, kappa=20.0)
        else:
            with pytest.raises(StepTooLarge, match="kappa = 20"):
                dynamics._check_explicit_damping(gammas, kappa=20.0)

    def test_complex_eigenvalues(self):
        # eigenvalues 10 +- 25i: positive real part, but |1 - lambda/20| > 1
        gammas = np.array([[[10.0, 25.0], [-25.0, 10.0]]])
        with pytest.raises(StepTooLarge):
            dynamics._check_explicit_damping(gammas, kappa=20.0)
        dynamics._check_explicit_damping(gammas, kappa=40.0)


class TestSimulateCoupled:
    def test_zero_noise_zero_force_is_exact(self):
        model = free_model(gamma=2.0)
        res = simulate_coupled(
            model, eps=0.05, T=0.5, delta=0.0025, Delta=0.01,
            n_particles=2, replica_id=0, seed=42, v0=0.0,
        )
        assert res.sup_diff == 0.0

    def test_grid_mismatch(self):
        model = constant_model()
        with pytest.raises(GridMismatch):
            simulate_coupled(
                model, eps=0.1, T=0.5, delta=0.003, Delta=0.01,
                n_particles=1, replica_id=0, seed=0,
            )

    def test_deterministic_across_calls(self):
        model = constant_model()
        kwargs = dict(
            eps=0.1, T=0.25, delta=0.005, Delta=0.025,
            n_particles=2, replica_id=3, seed=7, record_paths=True,
        )
        a = simulate_coupled(model, **kwargs)
        b = simulate_coupled(model, **kwargs)
        assert a.sup_diff == b.sup_diff
        assert np.array_equal(a.paths.x_full, b.paths.x_full)
        assert np.array_equal(a.paths.x_limit, b.paths.x_limit)

    def test_limit_system_against_itself_is_exact(self):
        model = model_library(
            ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 1})
        )
        a = run_limit_path(model, T=0.5, Delta=0.01, n_particles=4, replica_id=1, seed=9)
        b = run_limit_path(model, T=0.5, Delta=0.01, n_particles=4, replica_id=1, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family, params", [
        ("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 2,
                         "sigma": [[1.0, 0.3], [-0.2, 0.8]]}),
        ("carrillo-force", {"a": 2.0, "b": -0.5, "c": 0.8, "d": 1}),
    ])
    def test_limit_path_is_step_limit_em_on_the_coarse_draw(self, family, params):
        # measure-dependent coefficients, 3 particles: the limit path is
        # step_limit_em iterated over a plain driver's increments on the
        # coarse step, bit for bit
        model = model_library(ModelSpec(family, params))
        T, Delta, N, replica, seed = 0.1, 0.01, 3, 2, 17
        x0 = np.linspace(-0.5, 0.7, N * model.dim).reshape(N, model.dim)
        got = run_limit_path(model, T, Delta, N, replica, seed, x0)
        dws = NoiseDriver(seed, Delta, 1).fast_increments(replica, N, model.noise_dim, 10)
        ens = ParticleEnsembleLimit(0.0, x0)
        want = [ens.x]
        for dw in dws:
            ens = step_limit_em(ens, model, Delta, dw)
            want.append(ens.x)
        assert got.shape == (11, N, model.dim)
        assert got.tobytes() == np.array(want).tobytes()

    def test_sup_diff_decreases_with_eps_for_fixed_noise(self):
        # same master seed, same replica keys, same fast grid for both eps:
        # the same Brownian path drives both runs
        model = constant_model()
        delta = 0.01 / 20.0
        replicas = list(range(100))
        sup_big, sup_small = _run_replicas(
            model, [0.1, 0.01], [delta, delta], 1.0, 0.01, 1, replicas, 2024, 0.0, 0.0,
        )
        frac = np.mean(sup_small <= sup_big)
        assert frac >= 0.90

    def test_state_correction_improves_coupling(self):
        # physics-level sign check: for state-dependent friction the coupled
        # strong error must be substantially smaller with the correction
        # drift than with it dropped (the dropped variant floors at the
        # systematic bias instead of decaying with eps)
        a, b = 2.0, 1.0
        corrected = model_library(ModelSpec("scalar-state", {"a": a, "b": b}))
        dropped = SystemModel(
            dim=1,
            noise_dim=1,
            force=lambda X, S: -X,
            noise=lambda X, S: np.ones(X.shape + (1,)),
            friction=lambda X, S: (a + b * np.tanh(X))[..., None],
        )
        eps, delta = 0.002, 0.002 / 20.0
        ids = list(range(60))
        (with_s,) = _run_replicas(
            corrected, [eps], [delta], 1.0, 0.01, 1, ids, 777, 0.5, 0.0,
        )
        (without_s,) = _run_replicas(
            dropped, [eps], [delta], 1.0, 0.01, 1, ids, 777, 0.5, 0.0,
        )
        assert np.mean(without_s) >= 1.5 * np.mean(with_s)

    def test_exponential_scheme_end_to_end(self):
        model = constant_model()
        res = simulate_coupled(
            model, eps=0.05, T=0.25, delta=0.025, Delta=0.025,
            n_particles=2, replica_id=0, seed=13, scheme="exponential",
        )
        assert np.isfinite(res.sup_diff) and res.sup_diff > 0.0
        silent = free_model()
        res0 = simulate_coupled(
            silent, eps=0.05, T=0.25, delta=0.025, Delta=0.025,
            n_particles=1, replica_id=0, seed=13, scheme="exponential",
        )
        assert res0.sup_diff == 0.0

    def test_batch_matches_single_replica(self):
        model = constant_model()
        (sup,) = _run_replicas(
            model, [0.1], [0.005], 0.25, 0.025, 2, [0, 1, 2], 11, 0.0, 0.0,
        )
        for rid in range(3):
            res = simulate_coupled(
                model, eps=0.1, T=0.25, delta=0.005, Delta=0.025,
                n_particles=2, replica_id=rid, seed=11,
            )
            assert res.sup_diff == pytest.approx(sup[rid], rel=1e-12, abs=1e-15)


class TestOneBrownianPath:
    # every eps of a sweep and the limit ride one draw on the union of the
    # fast grids; m = 3 and 4 (eps = 0.2/3 and 0.05 at kappa = 20) do not nest
    EPS = [0.2 / 3, 0.05]
    DELTAS = [0.01 / 3, 0.0025]

    def test_sweep_is_its_parts_on_one_draw(self):
        model = model_library(ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 1}))
        T, Delta, N, seed, x0 = 0.05, 0.01, 3, 4, [[0.2], [-0.1], [0.4]]
        seen = []   # per window from the start: X of the first eps, and XL

        def record(rows, j, systems):
            seen.append((systems[0][1][0].copy(), systems[-1][1][0].copy()))

        sup = _run_replicas(
            model, self.EPS, self.DELTAS, T, Delta, N, [0], seed, x0, 0.0, on_window=record,
        )
        x_full, x_limit = (np.array(path) for path in zip(*seen))
        drv, cuts = NoiseDriver.union(seed, Delta, [3, 4])
        union = drv.fast_increments_batch([0], N, 1, 5 * drv.m_substeps)
        U = drv.m_substeps
        # the limit steps over the left-to-right window sums of the union increments
        XL = np.array(x0)[None]
        limit = [XL[0]]
        for w in range(5):
            dw = functools.reduce(operator.add, list(union[:, w * U:(w + 1) * U].swapaxes(0, 1)))
            XL, _ = dynamics._advance_limit_em(model, XL, None, Delta, None, dw)
            limit.append(XL[0])
        assert np.array_equal(x_limit, np.array(limit))
        # each eps steps over the left-to-right sums of the union on its grid
        for i, (eps, delta) in enumerate(zip(self.EPS, self.DELTAS)):
            X, V = np.array(x0)[None], np.zeros((1, N, 1))
            worst = 0.0
            for w in range(5):
                steps = driver.grid_increments(union[:, w * U:(w + 1) * U], cuts[i])
                for s in range(steps.shape[1]):
                    X, V = _advance_full_em(model, X, V, delta, eps, steps[:, s])
                worst = max(worst, float(np.max(np.sum((X[0] - limit[w + 1]) ** 2, axis=-1))))
                if i == 0:
                    assert np.array_equal(x_full[w + 1], X[0])
            assert sup[i, 0] == worst

    def test_limit_steps_over_the_left_fold_of_each_window(self):
        # constant family, one particle, eps = 0.1 ... 0.01 at kappa = 20: 20
        # union substeps a window, where numpy's sum of a window is pairwise
        # and at this seed differs from the left fold in some windows
        model, T, Delta, seed = constant_model(), 0.2, 0.01, 3
        eps_values = [0.1, 0.05, 0.02, 0.01]
        deltas = [eps / DEFAULT_KAPPA for eps in eps_values]
        drv, _ = NoiseDriver.union(seed, Delta, [2, 4, 10, 20])
        U = drv.m_substeps
        union = drv.fast_increments_batch([0], 1, 1, 20 * U)[0]
        windows = [union[w * U:(w + 1) * U] for w in range(20)]
        folds = [functools.reduce(operator.add, list(window)) for window in windows]
        assert U == 20
        assert any(not np.array_equal(f, win.sum(axis=0)) for f, win in zip(folds, windows))
        ens = ParticleEnsembleLimit(0.0, np.array([[0.3]]))
        want = [ens.x]
        for dw in folds:
            ens = step_limit_em(ens, model, Delta, dw)
            want.append(ens.x)
        res = simulate_coupled(model, 0.01, T, 0.0005, Delta, 1, 0, seed, x0=0.3,
                               record_paths=True)
        assert res.paths.x_limit.tobytes() == np.array(want).tobytes()
        swept = []   # the limit of the four-eps sweep, on the same draw

        def record(rows, j, systems):
            swept.append(systems[-1][1][0].copy())

        _run_replicas(model, eps_values, deltas, T, Delta, 1, [0], seed, 0.3, 0.0,
                      on_window=record)
        assert np.array(swept).tobytes() == np.array(want).tobytes()

    def test_no_run_sums_windows_apart(self, monkeypatch):
        # the limit sums its windows as one more grid of the draw, so no entry
        # point asks the driver for window sums
        def refuse(self, fast):
            raise AssertionError("coarse_from_fast called")

        monkeypatch.setattr(NoiseDriver, "coarse_from_fast", refuse)
        model = constant_model()
        run_convergence(model, [0.1, 0.05], T=0.05, n_particles=2, replicas=4, seed=1,
                        delta_rule=DeltaRule(), Delta=0.01)
        simulate_coupled(model, 0.05, 0.05, 0.0025, 0.01, 2, 0, 1, record_paths=True)
        run_limit_path(model, 0.05, 0.01, 2, 0, 1)
        diagnostics_velocity(model, 0.05, 0.05, 0.0025, replicas=4, seed=1)
        step_full_em(ParticleEnsembleFull(0.0, 0.05, np.zeros((2, 1)), np.zeros((2, 1))),
                     model, 0.0025, np.full((2, 1), 0.1))
        step_limit_em(ParticleEnsembleLimit(0.0, np.zeros((2, 1))), model, 0.01,
                      np.full((2, 1), 0.1))

    def test_finest_of_nested_grids_keeps_the_bits_of_a_run_alone(self):
        # m = 2, 4 and 20 nest in the finest grid, whose increments are then
        # the draw itself: its eps and the limit path are the one-eps run's
        model = constant_model()
        ids = list(range(5))
        _, _, finest = _run_replicas(
            model, [0.1, 0.05, 0.01], [0.005, 0.0025, 0.0005], 0.2, 0.01, 2, ids, 8, 0.0, 0.0,
        )
        (alone,) = _run_replicas(model, [0.01], [0.0005], 0.2, 0.01, 2, ids, 8, 0.0, 0.0)
        assert finest.tobytes() == alone.tobytes()

    # a window of 3 replicas x 6 union substeps x 2 particles is 288 bytes
    @pytest.mark.parametrize("block_bytes", [1, 3 * 288, 2**40])
    def test_unequal_substeps_do_not_depend_on_blocks_or_batches(self, monkeypatch, block_bytes):
        # blocks of one window, of three, and of the whole run; replicas in
        # one batch or one at a time
        model = constant_model()
        want = _run_replicas(model, self.EPS, self.DELTAS, 0.1, 0.01, 2, range(3), 5, 0.0, 0.0)
        monkeypatch.setattr(driver, "BLOCK_BYTES", block_bytes)
        whole = _run_replicas(model, self.EPS, self.DELTAS, 0.1, 0.01, 2, range(3), 5, 0.0, 0.0)
        apart = [
            _run_replicas(model, self.EPS, self.DELTAS, 0.1, 0.01, 2, [r], 5, 0.0, 0.0)
            for r in range(3)
        ]
        assert whole.tobytes() == want.tobytes()
        assert np.concatenate(apart, axis=1).tobytes() == want.tobytes()


class TestReplicaBatches:
    def test_pairs_count_when_coefficients_read_the_measure(self):
        # 64 particles: 64 values per replica for the constant family, 64 x 64
        # pairwise ones for the interaction family
        pairwise = model_library(ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 1}))
        assert [len(b) for b in _replica_batches(constant_model(), 200, 64)] == [200]
        assert [len(b) for b in _replica_batches(pairwise, 50, 64)] == [16, 16, 16, 2]
        assert [r for b in _replica_batches(pairwise, 50, 64) for r in b] == list(range(50))


class TestVelocityDiagnostics:
    def test_deterministic_decay_sup_at_time_zero(self):
        model = free_model(gamma=2.0)
        eps, v0 = 0.05, 1.5
        diag = diagnostics_velocity(
            model, eps, T=0.5, delta=0.0025, replicas=4, seed=0, v0=v0
        )
        assert diag.sup_ev2 == pytest.approx(eps * v0 * v0, abs=1e-14)
        assert diag.sup_ev2_time == 0.0
        # (sup |eps*v|)^4 is deterministic here: (eps*v0)^4
        assert diag.mean_sup_ev4 == pytest.approx((eps * v0) ** 4, abs=1e-14)
        assert diag.mean_sup_ev4_stderr == pytest.approx(0.0, abs=1e-16)

    def test_the_runner_alone_checks_the_step_and_the_grid(self, monkeypatch):
        # the record grid is sized on the start state, after the runner's checks
        calls = []

        def counted(check):
            return lambda *args: calls.append(check.__name__) or check(*args)

        for name in ("_full_kernel", "_ratio_int"):
            monkeypatch.setattr(dynamics, name, counted(getattr(dynamics, name)))
        diag = diagnostics_velocity(constant_model(), 0.05, T=0.1, delta=0.0025, replicas=4, seed=0)
        assert sorted(calls) == ["_full_kernel", "_ratio_int", "_ratio_int"]   # T/Delta, Delta/delta
        assert diag.sup_ev2_time in np.arange(11) * 4 * 0.0025   # 40 steps, every 4th recorded

    def test_ou_stationary_variance_at_terminal_time(self):
        # eps E|v_T|^2 ~= sigma^2/(2 gamma) = 0.25 within 3 SE, 500 replicas
        model = constant_model(gamma=2.0, K=1.0, sigma=1.0)
        eps = 0.05
        diag = diagnostics_velocity(
            model, eps, T=1.0, delta=eps / 100.0, replicas=500, seed=31, n_record=1
        )
        # with n_record=1 the curve holds t=0 (value 0) and t=T only, so the
        # sup picks the terminal value
        assert diag.sup_ev2_time == pytest.approx(1.0)
        assert abs(diag.sup_ev2 - 0.25) <= 3.0 * diag.sup_ev2_stderr

    def test_plateau_independent_of_eps(self):
        model = constant_model(gamma=2.0, K=1.0, sigma=1.0)
        for eps, seed in ((0.1, 5), (0.01, 6)):
            diag = diagnostics_velocity(
                model, eps, T=1.0, delta=eps / 100.0, replicas=500, seed=seed
            )
            assert abs(diag.sup_ev2 - 0.25) <= 3.0 * diag.sup_ev2_stderr

    @pytest.mark.parametrize("d, n_particles, scheme, delta", [
        (1, 1, "explicit", 0.0025),
        (2, 2, "exponential", 0.01),
    ])
    def test_bytes_do_not_depend_on_batches_or_blocks(
        self, monkeypatch, d, n_particles, scheme, delta
    ):
        # 300 replicas, whose per-time sums fold in replica order; (minimum
        # replicas per batch, states per batch, noise block bytes): batches
        # of 1, 100, the default and R; blocks of one step, the default and
        # the whole run
        model = model_library(ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": d}))
        replicas = 300
        settings = [
            (1, 1, 1),
            (100, 1, driver.BLOCK_BYTES),
            (dynamics.BATCH_MIN_REPLICAS, dynamics.BATCH_STATES, driver.BLOCK_BYTES),
            (replicas, 1, 2**40),
            (replicas, 1, 1),
        ]
        reprs = set()
        for min_replicas, states, block_bytes in settings:
            monkeypatch.setattr(dynamics, "BATCH_MIN_REPLICAS", min_replicas)
            monkeypatch.setattr(dynamics, "BATCH_STATES", states)
            monkeypatch.setattr(driver, "BLOCK_BYTES", block_bytes)
            diag = diagnostics_velocity(
                model, 0.05, T=0.05, delta=delta, replicas=replicas, seed=12,
                n_particles=n_particles, scheme=scheme, n_record=4, x0=0.2, v0=-0.3,
            )
            reprs.add(repr(vars(diag)))
        assert len(reprs) == 1

    @pytest.mark.parametrize("entry", ["sweep", "union sweep", "diagnostics"])
    def test_streamed_runs_hold_one_block_at_a_time(self, monkeypatch, entry):
        # 64 particles, 2 replicas, 3000 fast steps in blocks of 1 MB: a
        # block is let go before the next is drawn, so the peak stays under
        # 1.5 blocks (holding the previous block during the draw takes two);
        # the union of 15 and 10 steps a window has 20 substeps, 6000 in all
        monkeypatch.setattr(driver, "BLOCK_BYTES", 2**20)
        model = constant_model()

        def run(T):
            if entry == "sweep":
                _run_replicas(model, [0.02], [0.001], T, 0.01, 64, range(2), 3, 0.0, 0.0)
            elif entry == "union sweep":
                _run_replicas(model, [0.03, 0.02], [0.01 / 15, 0.001], T, 0.01, 64,
                              range(2), 3, 0.0, 0.0)
            else:
                diagnostics_velocity(model, 0.02, T=T, delta=0.001, replicas=2,
                                     seed=3, n_particles=64)

        run(0.01)   # lazy set-up
        tracemalloc.start()
        try:
            run(3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2**20 < peak < 1.5 * 2**20

    def test_record_memory_does_not_grow_with_replicas(self, monkeypatch):
        # batches of 64 replicas, one record per step: holding every
        # replica's records would take 101 x 2700 x 8 bytes = 2.2 MB more
        # at 3000 replicas than at 300
        monkeypatch.setattr(dynamics, "BATCH_MIN_REPLICAS", 64)
        monkeypatch.setattr(dynamics, "BATCH_STATES", 1)
        peaks = []
        for replicas in (300, 3000):
            tracemalloc.start()
            diagnostics_velocity(
                constant_model(), 0.05, T=0.25, delta=0.0025, replicas=replicas,
                seed=5, n_record=100,
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5e6

    def test_per_time_sums_are_a_left_fold_in_replica_order(self, monkeypatch):
        # 300 replicas in batches of 64: the per-replica records, rebuilt
        # from each batch's velocities at the record steps and added one
        # replica at a time, give sup_ev2 and its standard error bit for bit
        monkeypatch.setattr(dynamics, "BATCH_MIN_REPLICAS", 64)
        monkeypatch.setattr(dynamics, "BATCH_STATES", 1)
        eps, T, delta, replicas, n_record = 0.05, 0.2, 0.0025, 300, 8
        rec_every = round(T / delta) // n_record
        batches = []   # per _march call (one batch): record index -> V
        march = dynamics._march

        def spy(model, blocks, systems, *, on_step, **kwargs):
            seen = {0: systems[0][2].copy()}
            batches.append(seen)

            def capture(s, V):
                if s % rec_every == 0:
                    seen[s // rec_every] = V.copy()
                on_step(s, V)

            return march(model, blocks, systems, on_step=capture, **kwargs)

        monkeypatch.setattr(dynamics, "_march", spy)
        diag = diagnostics_velocity(
            constant_model(), eps, T=T, delta=delta, replicas=replicas, seed=9,
            n_particles=3, n_record=n_record, v0=-0.3,
        )
        assert [len(b[0]) for b in batches] == [64, 64, 64, 64, 44]

        z_sum, z_sq_sum = [], []
        for j in range(n_record + 1):
            z = np.concatenate(
                [eps * np.mean(np.sum(b[j] * b[j], axis=-1), axis=-1) for b in batches]
            )
            z_sum.append(functools.reduce(operator.add, z.tolist(), 0.0))
            z_sq_sum.append(functools.reduce(operator.add, (z * z).tolist(), 0.0))
        mean_curve = np.array(z_sum) / replicas
        j_star = int(np.argmax(mean_curve))
        var = (z_sq_sum[j_star] - replicas * mean_curve[j_star] ** 2) / (replicas - 1)
        assert diag.sup_ev2 == float(mean_curve[j_star])
        assert diag.sup_ev2_stderr == float(np.sqrt(max(var, 0.0) / replicas))

    def test_squared_sup_gives_the_bits_of_the_norm_sup(self, monkeypatch):
        # 70 replicas of 3 particles at d = 3 in batches of 32: the sup of
        # |eps v| over every step, rebuilt with np.linalg.norm from each
        # batch's velocities, gives mean_sup_ev4 and its standard error bit
        # for bit, though the diagnostics keep |eps v|^2 and take one sqrt
        monkeypatch.setattr(dynamics, "BATCH_MIN_REPLICAS", 32)
        monkeypatch.setattr(dynamics, "BATCH_STATES", 1)
        eps, replicas = 0.05, 70
        sups = []   # per _march call (one batch): the running sup of |eps v|
        march = dynamics._march

        def spy(model, blocks, systems, *, on_step, **kwargs):
            sup = np.linalg.norm(eps * systems[0][2], axis=-1).max(axis=-1)
            sups.append(sup)

            def capture(s, V):
                np.maximum(sup, np.linalg.norm(eps * V, axis=-1).max(axis=-1), out=sup)
                on_step(s, V)

            return march(model, blocks, systems, on_step=capture, **kwargs)

        monkeypatch.setattr(dynamics, "_march", spy)
        diag = diagnostics_velocity(
            constant_model(gamma=[[2.0, 0.3, 0.0], [-0.3, 1.5, 0.2], [0.0, 0.1, 2.5]], d=3),
            eps, T=0.1, delta=0.0025, replicas=replicas, seed=5, n_particles=3,
            x0=0.2, v0=[0.5, -1.0, 0.25],
        )
        assert [len(s) for s in sups] == [32, 32, 6]
        sup4 = np.concatenate(sups) ** 4
        assert diag.mean_sup_ev4 == float(np.mean(sup4))
        assert diag.mean_sup_ev4_stderr == float(np.std(sup4, ddof=1) / np.sqrt(replicas))

    def test_exponential_terminal_distribution_matches_fine_em(self):
        # same model, same horizon: exponential stepper at delta = eps/10 vs
        # explicit EM at delta = eps/100, independent noise; compare the
        # terminal position spread within 3 combined standard errors
        model = constant_model(gamma=2.0, K=1.0, sigma=1.0)
        eps, T, R = 0.05, 1.0, 500

        def terminal_x(scheme, delta, seed):
            n = int(round(T / delta))
            drv = NoiseDriver(seed, delta, 1)
            dws = drv.fast_increments_batch(list(range(R)), 1, 1, n)
            X = np.zeros((R, 1, 1))
            V = np.zeros((R, 1, 1))
            adv = _advance_full_exponential if scheme == "exp" else _advance_full_em
            for j in range(n):
                X, V = adv(model, X, V, delta, eps, dws[:, j])
            return X[:, 0, 0]

        x_exp = terminal_x("exp", eps / 10.0, seed=71)
        x_em = terminal_x("em", eps / 100.0, seed=72)
        for xs, ys in ((x_exp, x_em),):
            m1, m2 = xs.mean(), ys.mean()
            se_m = np.sqrt(xs.var(ddof=1) / R + ys.var(ddof=1) / R)
            assert abs(m1 - m2) <= 3.0 * se_m
            q1, q2 = (xs ** 2).mean(), (ys ** 2).mean()
            se_q = np.sqrt((xs ** 2).var(ddof=1) / R + (ys ** 2).var(ddof=1) / R)
            assert abs(q1 - q2) <= 3.0 * se_q


class TestIncrementRegularity:
    def test_position_increments_grow_at_most_linearly(self):
        # E|x_{t+h} - x_t|^2 against h on a dyadic ladder; the log-log slope
        # must stay <= 1.2 (diffusive, not ballistic, at h >> eps/gamma)
        model = constant_model(gamma=2.0, K=1.0, sigma=1.0)
        eps = 0.001
        delta = 2.0 ** -15  # divides every h below and respects eps/kappa
        R = 400
        t0 = 0.25
        hs = [2.0 ** -j for j in range(8, 2, -1)]
        n0 = int(round(t0 / delta))
        n_extra = int(round(hs[-1] / delta))
        drv = NoiseDriver(314, delta, 1)
        dws = drv.fast_increments_batch(list(range(R)), 1, 1, n0 + n_extra)
        X = np.zeros((R, 1, 1))
        V = np.zeros((R, 1, 1))
        for j in range(n0):
            X, V = _advance_full_em(model, X, V, delta, eps, dws[:, j])
        x_ref = X[:, 0, 0].copy()
        msd = {}
        targets = {int(round(h / delta)): h for h in hs}
        for j in range(n_extra):
            X, V = _advance_full_em(model, X, V, delta, eps, dws[:, n0 + j])
            if (j + 1) in targets:
                msd[targets[j + 1]] = float(np.mean((X[:, 0, 0] - x_ref) ** 2))
        slope = np.polyfit(np.log([h for h in hs]), np.log([msd[h] for h in hs]), 1)[0]
        assert slope <= 1.2


class TestValidateAssumptions:
    def test_constant_diagonal_friction(self):
        model = constant_model(gamma=np.diag([2.0, 3.0]), K=1.0, sigma=1.0, d=2)
        report = validate_assumptions(model, ProbeConfig(n_states=16, seed=1))
        assert report.min_sym_eig == pytest.approx(2.0, abs=1e-10)
        assert not report.violated

    def test_linear_friction_violates(self):
        unstable = SystemModel(
            dim=1,
            noise_dim=1,
            force=lambda X, S: -X,
            noise=lambda X, S: np.ones(X.shape + (1,)),
            friction=lambda X, S: X[..., None],
            friction_dx=lambda X, S: np.ones(X.shape + (1, 1)),
        )
        with pytest.raises(AssumptionViolated) as err:
            validate_assumptions(unstable, ProbeConfig(lo=-1.0, hi=1.0))
        assert err.value.probe_point is not None
        assert err.value.probe_point[0] <= 0.0
        assert err.value.report.min_sym_eig <= 0.0

    def test_nan_friction_violates(self):
        broken = SystemModel(
            dim=1,
            noise_dim=1,
            force=lambda X, S: -X,
            noise=lambda X, S: np.ones(X.shape + (1,)),
            friction=lambda X, S: np.full(X.shape + (1,), np.nan),
        )
        with pytest.raises(AssumptionViolated) as err:
            validate_assumptions(broken, ProbeConfig(n_states=8, n_pairs=4))
        assert np.isnan(err.value.report.min_sym_eig)

    def test_interaction_lower_bound(self):
        model = model_library(
            ModelSpec("interaction", {"a": 2.0, "b": 0.0, "c": 1.0, "d": 1})
        )
        report = validate_assumptions(model, ProbeConfig(seed=3))
        assert report.min_sym_eig >= 2.0
        assert report.max_dmu_norm > 0.0
        assert all(np.isfinite(v) for v in report.lipschitz.values())

    @pytest.mark.parametrize("n_measures", [1, 2, 4])
    def test_w2_once_per_ordered_pair_of_measures(self, monkeypatch, n_measures):
        calls = []

        def counted(mu, nu):
            calls.append((mu, nu))
            return wasserstein2_assignment(mu, nu)

        monkeypatch.setattr(dynamics, "wasserstein2_assignment", counted)
        model = model_library(ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 2}))
        validate_assumptions(model, ProbeConfig(n_measures=n_measures, n_pairs=64, seed=2))
        assert 1 <= len(calls) <= n_measures ** 2
        assert len({(id(mu), id(nu)) for mu, nu in calls}) == len(calls)

    @staticmethod
    def point_probe(model, probe):
        """Lipschitz ratios and largest measure-derivative norm, one pair at a
        time through the point API, on the probe's own draws: the reference
        for the probe's stacked evaluation."""
        rng = np.random.default_rng(probe.seed)
        d, extension = model.dim, model.mode == "extension"
        if d > 1:
            rng.uniform(probe.lo, probe.hi, size=(probe.n_states, d))
        size = (dynamics.PROBE_MEASURE_SIZE, d)
        measures = [
            EmpiricalMeasure(rng.uniform(probe.lo, probe.hi, size=size))
            for _ in range(probe.n_measures)
        ]
        ratios = dict.fromkeys(["force", "noise", "friction", "friction_dx"], 0.0)
        max_dmu = 0.0
        for p in range(probe.n_pairs):
            x1 = rng.uniform(probe.lo, probe.hi, size=d)
            if p % 2 == 0:
                direction = rng.normal(size=d)
                x2 = x1 + dynamics.PROBE_FD_STEP * direction / np.linalg.norm(direction)
            else:
                x2 = rng.uniform(probe.lo, probe.hi, size=d)
            m1, m2 = rng.choice(len(measures), size=2)
            mu1, mu2 = measures[m1], measures[m2]
            dx = float(np.linalg.norm(x1 - x2))
            denom = dx + wasserstein2_assignment(mu1, mu2)
            state_denom = denom if extension else dx
            at1, at2 = (mu1, mu2) if extension else (None, None)
            pairs = {
                "force": (model.force(x1, at1), model.force(x2, at2), state_denom),
                "noise": (model.noise(x1, at1), model.noise(x2, at2), state_denom),
                "friction": (model.friction(x1, mu1), model.friction(x2, mu2), denom),
                "friction_dx": (
                    model.friction_dx(x1, mu1), model.friction_dx(x2, mu2), denom
                ),
            }
            for name, (f1, f2, den) in pairs.items():
                if den > 0.0:
                    ratio = np.linalg.norm((f1 - f2).reshape(-1)) / den
                    ratios[name] = max(ratios[name], ratio)
            y = mu1.samples[int(rng.integers(0, mu1.size))]
            dmu_norm = float(np.linalg.norm(model.friction_dmu(x1, mu1, y).reshape(-1)))
            max_dmu = max(max_dmu, dmu_norm)
        return ratios, max_dmu

    @pytest.mark.parametrize(
        "family, d",
        [("scalar-state", 1)]
        + [(f, d) for f in ("constant", "interaction", "carrillo-force") for d in (1, 2, 3)],
    )
    def test_stacked_probe_matches_point_evaluation(self, family, d):
        rng = np.random.default_rng(d)
        dense = (np.eye(d) + 0.3 * rng.normal(size=(d, d))).tolist()
        params = {
            "constant": {"gamma0": 2.0, "K": dense, "sigma": dense, "d": d},
            "scalar-state": {"a": 2.0, "b": 1.0, "sigma": 0.7},
            "interaction": {"a": 2.0, "b": 0.5, "c": 1.0, "d": d, "K": dense, "sigma": dense},
            "carrillo-force": {"a": 2.0, "b": -0.5, "c": 0.8, "d": d, "sigma": dense},
        }[family]
        model = model_library(ModelSpec(family, params))
        probe = ProbeConfig(n_pairs=24, seed=d + 10)
        report = validate_assumptions(model, probe)
        assert (report.lipschitz, report.max_dmu_norm) == self.point_probe(model, probe)

    @pytest.mark.parametrize("d", [1, 3])
    def test_probe_uses_no_point_method(self, monkeypatch, d):
        # the probe evaluates every coefficient through the *_field stacks only
        def refuse(*args, **kwargs):
            raise AssertionError("point method called")

        for name in ("force", "noise", "friction", "friction_dx", "friction_dmu"):
            monkeypatch.setattr(SystemModel, name, refuse)
        specs = {
            "constant": {"gamma0": 2.0, "d": d},
            "interaction": {"a": 2.0, "b": 0.5, "c": 1.0, "d": d},
            "carrillo-force": {"a": 2.0, "b": 0.5, "c": 1.0, "d": d},
        }
        if d == 1:
            specs["scalar-state"] = {"a": 2.0, "b": 1.0}
        for family, params in specs.items():
            report = validate_assumptions(model_library(ModelSpec(family, params)))
            assert report.friction.shape == (4, 64, d, d)
            assert np.isfinite(list(report.lipschitz.values())).all()

    def test_measure_dependence_shows_in_report(self):
        model = model_library(ModelSpec("scalar-state", {"a": 2.0, "b": 1.0}))
        report = validate_assumptions(model, ProbeConfig(seed=4))
        assert report.max_dmu_norm == 0.0
        assert report.lipschitz["friction"] > 0.0


class TestNoEinsumAtD1:
    # a d = 1 sweep of the constant family takes every product of the step
    # and of the limit drift entrywise: np.einsum raises in the three modules
    # that step
    @pytest.mark.parametrize("rule", [DeltaRule(), DeltaRule("exponential", delta=0.002)],
                             ids=["explicit", "exponential"])
    def test_constant_sweep_calls_no_einsum(self, monkeypatch, rule):
        class NoEinsum:
            def __getattr__(self, name):
                if name == "einsum":
                    raise AssertionError("np.einsum called")
                return getattr(np, name)

        for module in (dynamics, models, linalg):
            monkeypatch.setattr(module, "np", NoEinsum())
        report = run_convergence(
            constant_model(), [0.1, 0.05], T=0.1, n_particles=2, replicas=3, seed=5,
            delta_rule=rule, Delta=0.01, validate=False,
        )
        assert all(np.isfinite(report.errors)) and min(report.errors) > 0.0


def _matrix_step(g, sig, F, X, V, delta, eps, dw):
    """The exponential step by the matrix formulas, the friction laid out as
    d x d matrices: what a dense friction takes."""
    scales = np.array([delta / eps, delta / (2.0 * eps)]).reshape(2, 1, 1, 1, 1)
    E, E_half = linalg.expm(-g * scales)
    gain = linalg.matmat(linalg.inv_batch(g), np.eye(g.shape[-1]) - E)
    V_new = linalg.matvec(E, V) + linalg.matvec(gain, F) + linalg.matvec(E_half, sig, dw) / eps
    return X + 0.5 * delta * (V + V_new), V_new


class TestDiagonalExponentialStep:
    # a diagonal friction steps as its diagonal, with the bits of the matrix
    # formulas, signed zeros included, for a diagonal, a dense and a
    # non-square sigma
    @staticmethod
    def model(d, sigma, gamma=None):
        def friction(X, S):
            if gamma is not None:
                return np.broadcast_to(gamma, X.shape + (d,))
            out = np.zeros(X.shape + (d,))
            out.reshape(X.shape[:-1] + (d * d,))[..., :: d + 1] = 1.5 + X * X
            return out

        return SystemModel(d, sigma.shape[1], lambda X, S: -X,
                           lambda X, S: np.broadcast_to(sigma, X.shape[:-1] + sigma.shape), friction)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("noise", ["diagonal", "dense", "non-square"])
    def test_same_bits_as_the_matrix_formulas(self, d, noise):
        rng = np.random.default_rng(61 + d)
        k = d + 1 if noise == "non-square" else d
        sigma = rng.normal(size=(d, k))
        if noise == "diagonal":
            sigma = np.diag(np.diag(sigma))
        model = self.model(d, sigma)
        R, N = 3, 5
        X = rng.normal(size=(R, N, d))
        V = rng.normal(size=(R, N, d))
        dw = rng.normal(size=(R, N, k)) * 0.1
        X[0, 0], V[0, 0], V[0, 1], dw[0, 0] = 0.0, -0.0, 0.0, -0.0   # signed zeros
        X[1, 0], V[1, 0] = -0.0, -0.0
        # every term of the new velocity -0.0 (F = -X): the sum must read +0.0
        X[2, 0], V[2, 0], dw[2, 0] = 0.0, -0.0, -np.copysign(0.0, np.diag(sigma)[0])
        assert np.signbit(X).any() and np.signbit(V).any()
        for delta, eps in ((0.0025, 0.05), (0.01, 0.01), (0.5, 0.01)):
            got = _advance_full_exponential(model, X, V, delta, eps, dw)
            g, sig = model.friction_field(X, X), model.noise_field(X, X)
            want = _matrix_step(g, sig, model.force_field(X, X), X, V, delta, eps, dw)
            for w, a in zip(want, got):
                assert np.array_equal(np.signbit(w), np.signbit(a))
                assert w.tobytes() == a.tobytes()

    def test_takes_no_matrix_exponential(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("expm called")

        monkeypatch.setattr(dynamics, "expm", refuse)
        model = model_library(ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 3}))
        ens = ParticleEnsembleFull(0.0, 0.05, np.ones((4, 3)), np.zeros((4, 3)))
        step_full_exponential(ens, model, 0.0025, np.zeros((4, 3)))

    @pytest.mark.parametrize("d", [1, 3])
    def test_nan_friction_raises_nonfinite(self, d):
        gamma = np.eye(d)
        gamma[-1, -1] = np.nan
        ens = ParticleEnsembleFull(0.0, 0.05, np.zeros((2, d)), np.zeros((2, d)))
        with pytest.raises(NonFinite):
            step_full_exponential(ens, self.model(d, np.eye(d), gamma), 0.0025, np.zeros((2, d)))

    @pytest.mark.parametrize("d", [1, 3])
    def test_zero_friction_entry_raises_linalg_error(self, d):
        gamma = np.eye(d)
        gamma[0, 0] = 0.0
        ens = ParticleEnsembleFull(0.0, 0.05, np.zeros((2, d)), np.zeros((2, d)))
        with pytest.raises(np.linalg.LinAlgError):
            step_full_exponential(ens, self.model(d, np.eye(d), gamma), 0.0025, np.zeros((2, d)))
