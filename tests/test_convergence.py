import threading
import tracemalloc

import numpy as np
import pytest

from smallmass import convergence, driver, dynamics
from smallmass.convergence import (
    ConvergenceReport,
    DeltaRule,
    constant_reduction_check,
    fit_rate,
    report_to_csv,
    report_to_json,
    run_convergence,
)
from smallmass.errors import (
    DegenerateFit,
    InsufficientReplicas,
    SizeLimitExceeded,
    StepTooLarge,
    ValidationError,
)
from smallmass.models import ModelSpec, SystemModel, limit_drift_fields, model_library


def constant_model(gamma=2.0, K=1.0, sigma=1.0, d=1):
    return model_library(
        ModelSpec("constant", {"gamma0": gamma, "K": K, "sigma": sigma, "d": d})
    )


def synthetic_report(eps, errors):
    return ConvergenceReport(
        model_spec=None,
        epsilons=list(eps),
        errors=list(errors),
        stderrs=[0.0] * len(eps),
        replicas=10,
        n_particles=1,
        ratios=[e / np.sqrt(x) for x, e in zip(eps, errors)],
    )


class TestFitRate:
    def test_exact_sqrt_law(self):
        eps = [0.1, 0.05, 0.02, 0.01]
        rep = synthetic_report(eps, [0.3 * e ** 0.5 for e in eps])
        fit = fit_rate(rep)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert np.exp(fit.intercept) == pytest.approx(0.3, rel=1e-10)

    def test_exact_linear_law(self):
        eps = [0.2, 0.1, 0.05]
        fit = fit_rate(synthetic_report(eps, [2.0 * e for e in eps]))
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_fills_report_fields(self):
        eps = [0.1, 0.05, 0.02]
        rep = synthetic_report(eps, [e for e in eps])
        fit_rate(rep)
        assert rep.slope is not None and rep.r2 is not None

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateFit):
            fit_rate(synthetic_report([0.1, 0.05], [0.1, 0.05]))
        with pytest.raises(DegenerateFit):
            fit_rate(synthetic_report([0.1, 0.05, 0.02], [0.1, 0.0, 0.02]))


class TestDeltaRule:
    def test_explicit_resolution_snaps_to_grid(self):
        rule = DeltaRule(scheme="explicit", kappa=20.0)
        delta = rule.resolve(0.1, 0.01)
        assert delta == pytest.approx(0.005)
        assert abs(0.01 / delta - 2.0) < 1e-12

    def test_exponential_requires_delta(self):
        with pytest.raises(ValidationError):
            DeltaRule(scheme="exponential")

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            DeltaRule(scheme="midpoint")

    @pytest.mark.parametrize("kappa", [0.0, -2.0, float("nan"), float("inf")])
    def test_explicit_kappa_must_be_positive_and_finite(self, kappa):
        with pytest.raises(ValidationError, match="kappa"):
            DeltaRule(scheme="explicit", kappa=kappa)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_exponential_delta_must_be_finite(self, delta):
        # these once passed here and failed only in resolve, with GridMismatch
        with pytest.raises(ValidationError, match="finite delta"):
            DeltaRule(scheme="exponential", delta=delta)


class TestRunConvergence:
    def test_zero_noise_zero_force_gives_zero_errors(self):
        model = SystemModel(
            dim=1,
            noise_dim=1,
            force=lambda X, S: np.zeros_like(X),
            noise=lambda X, S: np.zeros(X.shape + (1,)),
            friction=lambda X, S: np.broadcast_to(2.0 * np.eye(1), X.shape + (1,)),
        )
        rep = run_convergence(
            model, [0.1, 0.05], T=0.2, n_particles=1, replicas=3, seed=0,
            delta_rule=DeltaRule(), Delta=0.01, validate=False,
        )
        assert rep.errors == [0.0, 0.0]

    def test_stiff_friction_fails_before_the_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep started")

        monkeypatch.setattr(convergence, "_run_replicas", refuse)
        with pytest.raises(StepTooLarge, match="velocity factor"):
            run_convergence(
                constant_model(gamma=50.0), [0.1, 0.05], T=0.1, n_particles=1,
                replicas=2, seed=0, delta_rule=DeltaRule(kappa=20.0), Delta=0.01,
            )

    def test_a_step_the_explicit_rule_snaps_to_is_taken(self):
        # Delta / (eps / kappa) is 20 (1 + 5e-10): resolve snaps it to 20, a step
        # 5e-10 above eps/kappa, which the step bound once refused
        rep = run_convergence(
            constant_model(), [0.1, 0.01 / (1 + 5e-10)], T=0.02, n_particles=1,
            replicas=2, seed=0, delta_rule=DeltaRule(kappa=20.0), Delta=0.01,
        )
        assert len(rep.errors) == 2 and all(np.isfinite(rep.errors))

    def test_replica_count_beyond_memory_fails_before_batching(self, monkeypatch):
        # the result is made first: 2**62 replicas once meant a list of 2**46
        # batch ranges, built before anything failed
        def refuse(*args, **kwargs):
            raise AssertionError("batches built")

        monkeypatch.setattr(dynamics, "_replica_batches", refuse)
        with pytest.raises(SizeLimitExceeded, match="replicas"):
            run_convergence(
                constant_model(), [0.1, 0.05], T=0.1, n_particles=1, replicas=2**62,
                seed=0, delta_rule=DeltaRule(), Delta=0.01,
            )

    def test_particle_count_beyond_memory_is_a_typed_error(self):
        # 2**50 particles: once numpy's untyped MemoryError from the copy of
        # the start state
        with pytest.raises(SizeLimitExceeded, match="too many to hold"):
            run_convergence(
                constant_model(), [0.1, 0.05], T=0.1, n_particles=2**50, replicas=2,
                seed=0, delta_rule=DeltaRule(), Delta=0.01,
            )

    def test_sweep_runs_in_the_calling_thread(self, monkeypatch):
        # threads is accepted and has no effect: no batch runs in another thread
        on_main = []

        def recorded(*args, **kwargs):
            on_main.append(threading.current_thread() is threading.main_thread())
            return march(*args, **kwargs)

        march = dynamics._march   # the runner marches each batch through it
        monkeypatch.setattr(dynamics, "_march", recorded)
        run_convergence(
            constant_model(), [0.1, 0.05], T=0.1, n_particles=1, replicas=40,
            seed=0, delta_rule=DeltaRule(), Delta=0.01, threads=8,
        )
        assert on_main and all(on_main)

    def test_insufficient_replicas(self):
        with pytest.raises(InsufficientReplicas):
            run_convergence(
                constant_model(), [0.1], T=0.1, n_particles=1, replicas=1,
                seed=0, delta_rule=DeltaRule(), Delta=0.01,
            )

    def test_requires_decreasing_epsilons(self):
        with pytest.raises(ValidationError):
            run_convergence(
                constant_model(), [0.01, 0.1], T=0.1, n_particles=1, replicas=2,
                seed=0, delta_rule=DeltaRule(), Delta=0.01,
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.1])
    def test_rejects_nonpositive_or_nonfinite_epsilons(self, bad):
        # NaN compares False both ways, so it is rejected like inf and <= 0
        with pytest.raises(ValidationError, match="positive and finite"):
            run_convergence(
                constant_model(), [0.1, bad], T=0.1, n_particles=1, replicas=2,
                seed=0, delta_rule=DeltaRule(), Delta=0.01, validate=False,
            )

    def test_bit_reproducible_and_thread_invariant(self):
        model = constant_model()
        kwargs = dict(
            eps_list=[0.1, 0.05], T=0.25, n_particles=2, replicas=40, seed=99,
            delta_rule=DeltaRule(), Delta=0.025,
        )
        a = run_convergence(model, **kwargs)
        b = run_convergence(model, **kwargs)
        c = run_convergence(model, threads=8, **kwargs)
        assert a.errors == b.errors == c.errors
        assert a.stderrs == b.stderrs == c.stderrs

    @pytest.mark.parametrize("seed", [1.5, True, float("nan"), "7"])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        # 1.5 and True once ran seed 1
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run_convergence(
                constant_model(), [0.1, 0.05], T=0.1, n_particles=1, replicas=2,
                seed=seed, delta_rule=DeltaRule(), Delta=0.01, validate=False,
            )

    @pytest.mark.parametrize("threads", [0, -2])
    def test_rejects_threads_below_one(self, threads):
        with pytest.raises(ValidationError, match="threads"):
            run_convergence(
                constant_model(), [0.1, 0.05], T=0.1, n_particles=1, replicas=2,
                seed=0, delta_rule=DeltaRule(), Delta=0.01, threads=threads,
            )

    @pytest.mark.parametrize("scheme", ["exponential", "explicit"])
    def test_limit_runs_once_per_window_per_batch(self, monkeypatch, scheme):
        # the limit path has no eps in it, and every eps rides one Brownian
        # path: one fast step under the exponential rule, the union of three
        # fast grids under the explicit one; one limit path serves all three
        calls = []

        def counted(model, X, *args):
            calls.append(X.shape[0])
            return limit_drift_fields(model, X, *args)

        monkeypatch.setattr(dynamics, "limit_drift_fields", counted)
        rule = DeltaRule(scheme=scheme, delta=0.0025 if scheme == "exponential" else None)
        model = model_library(ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 1}))
        run_convergence(
            model, [0.1, 0.05, 0.025], T=0.05, n_particles=3, replicas=4, seed=1,
            delta_rule=rule, Delta=0.01, validate=False,
        )
        assert calls == [4] * 5

    def test_sweep_memory_does_not_grow_with_T(self, monkeypatch):
        # increments stream in blocks of whole windows, so doubling T leaves
        # the peak where it was; drawn at once, the fast increments of the
        # longer run alone would add 2 * 256 * 200 * 8 bytes
        monkeypatch.setattr(driver, "BLOCK_BYTES", 2**16)
        kwargs = dict(
            n_particles=256, replicas=2, seed=3, delta_rule=DeltaRule(),
            Delta=0.01, validate=False,
        )
        model = constant_model()
        run_convergence(model, [0.1, 0.05], T=0.02, **kwargs)   # lazy set-up
        peaks = []
        for T in (0.5, 1.0):
            tracemalloc.start()
            try:
                run_convergence(model, [0.1, 0.05], T=T, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.1 * (2 * 256 * 200 * 8)

    def test_constant_family_errors_decay(self):
        model = constant_model()
        rep = run_convergence(
            model, [0.1, 0.01], T=0.5, n_particles=1, replicas=60, seed=5,
            delta_rule=DeltaRule(), Delta=0.01,
        )
        assert rep.errors[1] < rep.errors[0]
        assert all(np.isfinite(rep.errors)) and all(s >= 0 for s in rep.stderrs)


class TestConstantReductionCheck:
    def test_exact_zero_d1(self):
        gap = constant_reduction_check(constant_model(), T=0.5, seed=21)
        assert gap == 0.0

    def test_exact_zero_d2_multiparticle(self):
        model = constant_model(
            gamma=np.array([[2.0, 0.5], [0.0, 3.0]]),
            K=np.array([[1.0, 0.2], [0.1, 1.5]]),
            sigma=0.7,
            d=2,
        )
        gap = constant_reduction_check(
            model, T=0.4, seed=22, Delta=0.02, n_particles=3
        )
        assert gap == 0.0

    def test_forced_correction_path_still_zero(self):
        # same constant coefficients, but with explicit zero-returning
        # derivative closures: the correction terms are computed rather than
        # skipped, and must still contribute exactly zero
        d = 2
        gamma0 = np.array([[2.0, 0.3], [0.0, 2.5]])
        sigma = 0.9 * np.eye(d)
        model = SystemModel(
            dim=d,
            noise_dim=d,
            force=lambda X, S: -X,
            noise=lambda X, S: np.broadcast_to(sigma, X.shape + (d,)),
            friction=lambda X, S: np.broadcast_to(gamma0, X.shape + (d,)),
            friction_dx=lambda X, S: np.zeros(X.shape + (d, d)),
            friction_dmu=lambda X, S, Y: np.zeros(
                X.shape[:2] + (Y.shape[1], d, d, d)
            ),
        )
        assert not (model.dx_is_zero or model.dmu_is_zero)
        gap = constant_reduction_check(model, T=0.3, seed=23, n_particles=2)
        assert gap == 0.0

    def test_rejects_state_dependent_friction(self):
        model = model_library(ModelSpec("scalar-state", {"a": 2.0, "b": 1.0}))
        with pytest.raises(ValidationError):
            constant_reduction_check(model, T=0.1, seed=0)

    def test_interaction_family_ratios_bounded(self):
        # operational form of the sqrt-eps envelope for the mean-field family:
        # finite estimates with err/sqrt(eps) spread at most 5x
        model = model_library(
            ModelSpec("interaction", {"a": 2.0, "b": 0.5, "c": 1.0, "d": 1})
        )
        rep = run_convergence(
            model, [0.1, 0.05, 0.02, 0.01], T=0.25, n_particles=16, replicas=24,
            seed=404, delta_rule=DeltaRule(), Delta=0.01,
        )
        assert all(np.isfinite(rep.errors))
        ratios = np.asarray(rep.ratios)
        assert ratios.max() / ratios.min() <= 5.0

    def test_small_eps_system_within_fitted_envelope(self):
        # fit the sqrt-eps envelope constant on a coarse eps grid, then check
        # the eps = 1e-3 coupled error against 5 * C * sqrt(eps)
        model = constant_model()
        rep = run_convergence(
            model, [0.1, 0.05, 0.02], T=0.5, n_particles=1, replicas=50,
            seed=77, delta_rule=DeltaRule(), Delta=0.01,
        )
        env_const = max(r for r in rep.ratios)
        small = run_convergence(
            model, [1e-3], T=0.5, n_particles=1, replicas=30, seed=77,
            delta_rule=DeltaRule(), Delta=0.01, validate=False,
        )
        assert small.errors[0] <= 5.0 * env_const * np.sqrt(1e-3)


class TestSerialization:
    def test_json_fields_and_determinism(self):
        rep = synthetic_report([0.1, 0.05, 0.02], [0.05, 0.02, 0.009])
        rep.model_spec = ModelSpec("constant", {"gamma0": 2.0, "K": 1.0})
        fit_rate(rep)
        doc = report_to_json(rep)
        assert doc == report_to_json(rep)
        for key in (
            '"model"', '"epsilons"', '"errors"', '"stderrs"',
            '"slope"', '"intercept"', '"r2"', '"ratios"',
        ):
            assert key in doc
        import json

        parsed = json.loads(doc)
        assert parsed["epsilons"] == [0.1, 0.05, 0.02]
        assert parsed["model"]["family"] == "constant"
        assert parsed["slope"] == rep.slope

    def test_csv_round_trip(self):
        rep = synthetic_report([0.1, 0.05, 0.02], [0.05, 0.02, 0.009])
        text = report_to_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "epsilon,error,stderr,ratio_sqrt"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.1
        assert float(first[3]) == rep.ratios[0]
