import numpy as np
import pytest

from smallmass.driver import NoiseDriver
from smallmass.dynamics import (
    ParticleEnsembleFull,
    ParticleEnsembleLimit,
    ProbeConfig,
    _advance_full_em,
    _advance_full_exponential,
    _run_coupled_batch,
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
    StepTooLarge,
    ValidationError,
)
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


class TestLimitStepper:
    def test_rest_state_unchanged(self):
        model = free_model()
        ens = ParticleEnsembleLimit(0.0, np.array([[0.7]]))
        out = step_limit_em(ens, model, 0.05, np.zeros((1, 1)))
        assert np.array_equal(out.x, ens.x)

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
    def test_run_limit_path_rejects_empty_ensemble(self, n_particles):
        with pytest.raises(ValidationError, match="n_particles"):
            run_limit_path(
                constant_model(), T=0.05, Delta=0.01, n_particles=n_particles,
                replica_id=0, seed=0,
            )


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

    def test_sup_diff_decreases_with_eps_for_fixed_noise(self):
        # same master seed, same replica keys, same fast grid for both eps:
        # the same Brownian path drives both runs
        model = constant_model()
        delta = 0.01 / 20.0
        replicas = list(range(100))
        sup_big, _ = _run_coupled_batch(
            model, 0.1, 1.0, delta, 0.01, 1, replicas, 2024, 0.0, 0.0,
        )
        sup_small, _ = _run_coupled_batch(
            model, 0.01, 1.0, delta, 0.01, 1, replicas, 2024, 0.0, 0.0,
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
        with_s, _ = _run_coupled_batch(
            corrected, eps, 1.0, delta, 0.01, 1, ids, 777, 0.5, 0.0,
        )
        without_s, _ = _run_coupled_batch(
            dropped, eps, 1.0, delta, 0.01, 1, ids, 777, 0.5, 0.0,
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
        sup, _ = _run_coupled_batch(
            model, 0.1, 0.25, 0.005, 0.025, 2, [0, 1, 2], 11, 0.0, 0.0,
        )
        for rid in range(3):
            res = simulate_coupled(
                model, eps=0.1, T=0.25, delta=0.005, Delta=0.025,
                n_particles=2, replica_id=rid, seed=11,
            )
            assert res.sup_diff == pytest.approx(sup[rid], rel=1e-12, abs=1e-15)


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

    def test_interaction_lower_bound(self):
        model = model_library(
            ModelSpec("interaction", {"a": 2.0, "b": 0.0, "c": 1.0, "d": 1})
        )
        report = validate_assumptions(model, ProbeConfig(seed=3))
        assert report.min_sym_eig >= 2.0
        assert report.max_dmu_norm > 0.0
        assert all(np.isfinite(v) for v in report.lipschitz.values())

    def test_measure_dependence_shows_in_report(self):
        model = model_library(ModelSpec("scalar-state", {"a": 2.0, "b": 1.0}))
        report = validate_assumptions(model, ProbeConfig(seed=4))
        assert report.max_dmu_norm == 0.0
        assert report.lipschitz["friction"] > 0.0
