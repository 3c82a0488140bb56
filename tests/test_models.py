import numpy as np
import pytest

from smallmass import linalg
from smallmass.errors import (
    ParameterViolation,
    SizeLimitExceeded,
    UnknownFamily,
    UnstableFriction,
    ValidationError,
)
from smallmass.measures import EmpiricalMeasure
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


# Magnitude guard used by the drift sanity property: corrections are bounded
# by derivative bounds * |sigma|^2 / c^3 on any probe set; anything beyond
# this cap indicates a broken model.
DRIFT_MAGNITUDE_CAP = 1e6


def interaction(a=2.0, b=0.5, c=1.0, d=1, sigma=1.0):
    return model_library(
        ModelSpec("interaction", {"a": a, "b": b, "c": c, "d": d, "sigma": sigma})
    )


def fd_gamma_inv_dx(model, x, mu, h=1e-5):
    """Central finite difference of x -> gamma^{-1}(x, mu), oracle for the
    sandwich identity."""
    d = model.dim
    out = np.empty((d, d, d))
    for l in range(d):
        e = np.zeros(d)
        e[l] = h
        plus = np.linalg.inv(model.friction(np.asarray(x) + e, mu))
        minus = np.linalg.inv(model.friction(np.asarray(x) - e, mu))
        out[:, :, l] = (plus - minus) / (2.0 * h)
    return out


def fd_gamma_inv_dmu_1d(model, x, mu, j, h=1e-5):
    """Mass-shift finite difference: move sample j of mu by h, scale by N.

    Valid because the built-in friction is a linear functional of mu.
    """
    pts = mu.samples.copy()
    pts_plus = pts.copy()
    pts_plus[j, 0] += h
    pts_minus = pts.copy()
    pts_minus[j, 0] -= h
    n = pts.shape[0]
    plus = np.linalg.inv(model.friction(x, EmpiricalMeasure(pts_plus)))
    minus = np.linalg.inv(model.friction(x, EmpiricalMeasure(pts_minus)))
    return n * (plus - minus) / (2.0 * h)


class TestModelLibrary:
    def test_constant_family_has_zero_derivatives(self):
        model = model_library(
            ModelSpec("constant", {"gamma0": 2.0, "K": 1.0, "sigma": 1.0, "d": 1})
        )
        mu = EmpiricalMeasure(np.array([0.3]))
        assert model.dx_is_zero and model.dmu_is_zero
        assert np.array_equal(model.friction_dx(0.5, mu), np.zeros((1, 1, 1)))
        assert np.array_equal(model.friction_dmu(0.5, mu, 0.1), np.zeros((1, 1, 1)))
        assert np.array_equal(model.friction(0.5, mu), [[2.0]])
        assert np.array_equal(model.force(3.0), [-3.0])

    def test_scalar_state_values_at_origin(self):
        model = model_library(ModelSpec("scalar-state", {"a": 2.0, "b": 1.0}))
        mu = EmpiricalMeasure(np.array([0.0]))
        assert model.friction(0.0, mu)[0, 0] == pytest.approx(2.0)
        # tanh'(0) = 1
        assert model.friction_dx(0.0, mu)[0, 0, 0] == pytest.approx(1.0)

    def test_interaction_at_dirac_measure(self):
        model = interaction(a=2.0, b=0.0, c=1.0)
        mu = EmpiricalMeasure(np.array([0.0]))
        assert model.friction(0.0, mu)[0, 0] == pytest.approx(3.0)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            model_library(ModelSpec("no-such-family", {}))

    def test_parameter_violation(self):
        with pytest.raises(ParameterViolation):
            model_library(ModelSpec("scalar-state", {"a": 1.0, "b": 1.0}))
        with pytest.raises(ParameterViolation):
            model_library(ModelSpec("interaction", {"a": 1.0, "b": 0.0, "c": -1.0}))
        with pytest.raises(ParameterViolation):
            model_library(ModelSpec("constant", {"gamma0": -1.0}))
        with pytest.raises(ParameterViolation):
            model_library(ModelSpec("constant", {"gamma0": 1.0, "typo_key": 3.0}))

    @pytest.mark.parametrize(
        "family, params",
        [
            ("constant", {"gamma0": 2.0, "d": 2.7}),
            ("constant", {"gamma0": 2.0, "k": 2.9}),
            ("constant", {"gamma0": 2.0, "d": True}),
            ("constant", {"gamma0": 2.0, "d": 0}),
            ("constant", {"gamma0": "2.0"}),
            ("constant", {"gamma0": [[True]]}),
            ("constant", {"gamma0": 2.0, "d": 2, "sigma": [[1.0, 0.0], [0.5]]}),
            ("interaction", {"a": "2", "b": 0.5, "c": 1.0}),
            ("interaction", {"a": 10**400, "b": 0.5, "c": 1.0}),
            ("interaction", {"a": 2.0, "b": 0.5, "c": np.bool_(True)}),
            ("interaction", {"a": 2.0, "b": 0.5, "c": [1.0]}),
            ("scalar-state", {"a": 2.0, "b": 0.5, "sigma": None}),
        ],
    )
    def test_parameter_must_be_a_number(self, family, params):
        with pytest.raises(ParameterViolation):
            model_library(ModelSpec(family, params))

    @pytest.mark.parametrize("key", ["d", "k"])
    def test_dimensions_bounded_by_max_dim(self, key):
        model = model_library(ModelSpec("constant", {"gamma0": 2.0, key: linalg.MAX_DIM}))
        assert {"d": model.dim, "k": model.noise_dim}[key] == linalg.MAX_DIM
        with pytest.raises(SizeLimitExceeded, match=f"'{key}'"):
            model_library(ModelSpec("constant", {"gamma0": 2.0, key: linalg.MAX_DIM + 1}))
        with pytest.raises(SizeLimitExceeded):
            model_library(ModelSpec("constant", {"gamma0": 2.0, key: 1e9}))

    def test_integral_float_and_numpy_scalars_accepted(self):
        model = model_library(ModelSpec("constant", {"gamma0": 2.0, "d": 2.0}))
        assert (model.dim, model.noise_dim) == (2, 2)
        model = model_library(ModelSpec("interaction", {
            "a": np.float64(2.0), "b": np.float32(0.5), "c": np.int64(1),
            "d": np.int64(3), "k": np.float64(2.0),
        }))
        assert (model.dim, model.noise_dim) == (3, 2)
        mu = EmpiricalMeasure(np.zeros((1, 3)))
        assert model.friction(np.zeros(3), mu)[0, 0] == pytest.approx(3.0)

    def test_extension_mode_requires_measure(self):
        model = model_library(ModelSpec("carrillo-force", {"a": 2.0, "b": 0.0, "c": 1.0}))
        with pytest.raises(ValidationError):
            model.force(0.0)

    def test_matrix_parameter_of_the_wrong_shape(self):
        with pytest.raises(ParameterViolation, match="must have shape"):
            model_library(ModelSpec("constant", {"d": 2, "gamma0": [[1, 2]]}))

    @pytest.mark.parametrize("dim, mode, match", [
        (1, "implicit", "unknown mode"), (0, "state-only", "dim must be >= 1"),
    ])
    def test_system_model_rejects_an_unknown_mode_or_no_dimension(self, dim, mode, match):
        with pytest.raises(ValidationError, match=match):
            SystemModel(dim, 1, None, None, None, mode=mode)

    def test_point_friction_checks_the_state_and_the_measure_dimension(self):
        model = model_library(ModelSpec("constant", {"gamma0": 2.0, "d": 2}))
        with pytest.raises(ValidationError, match="state must have dimension 2"):
            model.friction(np.zeros(3), EmpiricalMeasure(np.zeros((1, 2))))
        with pytest.raises(ValidationError, match="measure dimension 1"):
            model.friction(np.zeros(2), EmpiricalMeasure(np.zeros((1, 1))))


class TestGammaInvDx:
    def test_constant_family_is_zero(self):
        model = model_library(ModelSpec("constant", {"gamma0": 3.0, "d": 2}))
        mu = EmpiricalMeasure(np.zeros((2, 2)))
        G = gamma_inv_dx(model, np.zeros(2), mu)
        assert np.array_equal(G, np.zeros((2, 2, 2)))

    def test_scalar_state_closed_form(self):
        # gamma = 2, gamma' = 1 at x = 0, so (1/gamma)' = -1/4
        model = model_library(ModelSpec("scalar-state", {"a": 2.0, "b": 1.0}))
        mu = EmpiricalMeasure(np.array([0.0]))
        G = gamma_inv_dx(model, 0.0, mu)
        assert G[0, 0, 0] == pytest.approx(-0.25, abs=1e-14)

    def test_matches_finite_difference_d2(self):
        rng = np.random.default_rng(211)
        model = interaction(a=2.0, b=0.5, c=1.0, d=2)
        for _ in range(20):
            x = rng.normal(size=2)
            mu = EmpiricalMeasure(rng.normal(size=(6, 2)))
            got = gamma_inv_dx(model, x, mu)
            ref = fd_gamma_inv_dx(model, x, mu)
            assert np.abs(got - ref).max() <= 1e-6

    def test_finite_difference_across_families(self):
        rng = np.random.default_rng(213)
        models = [
            model_library(ModelSpec("scalar-state", {"a": 2.0, "b": 1.0})),
            interaction(a=2.0, b=0.5, c=1.0, d=1),
            interaction(a=3.0, b=-1.0, c=0.5, d=3),
        ]
        for model in models:
            for _ in range(100):
                x = rng.normal(size=model.dim)
                mu = EmpiricalMeasure(rng.normal(size=(5, model.dim)))
                got = gamma_inv_dx(model, x, mu)
                ref = fd_gamma_inv_dx(model, x, mu)
                assert np.abs(got - ref).max() <= 1e-6

    def test_unstable_raises(self):
        # friction gamma(x) = x is not positive definite at x <= 0
        unstable = SystemModel(
            dim=1,
            noise_dim=1,
            force=lambda X, S: -X,
            noise=lambda X, S: np.ones(X.shape + (1,)),
            friction=lambda X, S: X[..., None],
            friction_dx=lambda X, S: np.ones(X.shape + (1, 1)),
        )
        mu = EmpiricalMeasure(np.array([0.0]))
        with pytest.raises(UnstableFriction):
            gamma_inv_dx(unstable, np.array([-1.0]), mu)


class TestGammaInvDmu:
    def test_zero_for_state_only_friction(self):
        model = model_library(ModelSpec("scalar-state", {"a": 2.0, "b": 1.0}))
        mu = EmpiricalMeasure(np.array([0.4, -0.2]))
        got = gamma_inv_dmu(model, 0.1, mu, 0.4)
        assert np.array_equal(got, np.zeros((1, 1, 1)))

    def test_matches_mass_shift_difference(self):
        rng = np.random.default_rng(217)
        model = interaction(a=2.0, b=0.5, c=1.0, d=1)
        for _ in range(25):
            x = rng.normal()
            pts = rng.normal(size=(6, 1))
            mu = EmpiricalMeasure(pts)
            j = int(rng.integers(0, 6))
            got = gamma_inv_dmu(model, x, mu, pts[j])
            ref = fd_gamma_inv_dmu_1d(model, x, mu, j)
            assert abs(got[0, 0, 0] - ref[0, 0]) <= 1e-6

    def test_antisymmetric_in_y_for_even_profile(self):
        # even bump, b = 0: contributions at y and -y around x = 0 cancel
        model = interaction(a=2.0, b=0.0, c=1.0, d=1)
        y = 0.7
        mu = EmpiricalMeasure(np.array([y, -y]))
        plus = gamma_inv_dmu(model, 0.0, mu, y)
        minus = gamma_inv_dmu(model, 0.0, mu, -y)
        assert np.abs(plus + minus).max() <= 1e-14


class TestDriftS:
    def test_constant_family_exactly_zero(self):
        model = model_library(ModelSpec("constant", {"gamma0": 2.0, "d": 2}))
        mu = EmpiricalMeasure(np.zeros((3, 2)))
        S = drift_S(model, np.array([0.7, -0.1]), mu)
        assert np.array_equal(S, np.zeros(2))

    def test_scalar_state_closed_form(self):
        # S = -gamma' sigma^2 / (2 gamma^3) = -1/16 at x = 0 for a=2, b=1
        model = model_library(ModelSpec("scalar-state", {"a": 2.0, "b": 1.0}))
        mu = EmpiricalMeasure(np.array([0.0]))
        S = drift_S(model, 0.0, mu)
        assert S[0] == pytest.approx(-0.0625, abs=1e-15)

    def test_matches_fd_lyapunov_composition(self):
        rng = np.random.default_rng(219)
        model = interaction(a=2.0, b=0.5, c=1.0, d=2)
        for _ in range(20):
            x = rng.normal(size=2)
            mu = EmpiricalMeasure(rng.normal(size=(5, 2)))
            got = drift_S(model, x, mu)
            G = fd_gamma_inv_dx(model, x, mu)
            sig = model.noise(x, mu)
            J = linalg.solve_lyapunov(model.friction(x, mu), sig @ sig.T)
            ref = np.einsum("ijl,jl->i", G, J)
            assert np.abs(got - ref).max() <= 1e-8


class TestDriftSTilde:
    def test_zero_for_state_only_friction(self):
        model = model_library(ModelSpec("scalar-state", {"a": 2.0, "b": 1.0}))
        mu = EmpiricalMeasure(np.array([0.2, -0.4, 1.0]))
        S = drift_S_tilde(model, 0.3, mu)
        assert np.array_equal(S, np.zeros(1))

    def test_two_sample_hand_sum(self):
        # (1/2) sum_k [-gamma'^{-1} terms] with scalar Sylvester solution
        # sigma(x) sigma(y) / (gamma(x) + gamma(y))
        model = interaction(a=2.0, b=0.5, c=1.0, d=1)
        x = 0.3
        pts = np.array([0.9, -0.6])
        mu = EmpiricalMeasure(pts)
        g_x = model.friction(x, mu)[0, 0]
        ginv = 1.0 / g_x
        total = 0.0
        for y in pts:
            g_y = model.friction(y, mu)[0, 0]
            dmu = model.friction_dmu(x, mu, y)[0, 0, 0]
            j_t = 1.0 * 1.0 / (g_x + g_y)
            total += (-ginv * dmu * ginv) * j_t
        ref = total / 2.0
        got = drift_S_tilde(model, x, mu)
        assert got[0] == pytest.approx(ref, abs=1e-8)

    def test_bruteforce_random_measures(self):
        rng = np.random.default_rng(223)
        model = interaction(a=2.0, b=0.5, c=1.0, d=1)
        for _ in range(25):
            x = rng.normal()
            pts = rng.normal(size=(7, 1))
            mu = EmpiricalMeasure(pts)
            g_x = model.friction(x, mu)[0, 0]
            acc = 0.0
            for y in pts[:, 0]:
                g_y = model.friction(y, mu)[0, 0]
                dmu = model.friction_dmu(x, mu, y)[0, 0, 0]
                acc += (-dmu / g_x ** 2) * (1.0 / (g_x + g_y))
            ref = acc / len(pts)
            got = drift_S_tilde(model, x, mu)
            assert got[0] == pytest.approx(ref, abs=1e-8)

    def test_symmetric_configuration_vanishes(self):
        model = interaction(a=2.0, b=0.0, c=1.0, d=1)
        mu = EmpiricalMeasure(np.array([0.8, -0.8]))
        S = drift_S_tilde(model, 0.0, mu)
        assert abs(S[0]) <= 1e-12

    def test_single_sample_degenerate_measure(self):
        model = interaction(a=2.0, b=0.5, c=1.0, d=1)
        mu = EmpiricalMeasure(np.array([0.4]))
        S = drift_S_tilde(model, 0.4, mu)
        # self gradient vanishes at y = x for the even bump
        assert S[0] == pytest.approx(0.0, abs=1e-14)


class TestModeEquivalence:
    def test_extension_and_state_only_drifts_agree(self):
        # same friction and mu-independent sigma: correction drifts coincide
        rng = np.random.default_rng(227)
        state = interaction(a=2.0, b=0.5, c=1.0, d=1)
        extension = model_library(
            ModelSpec(
                "carrillo-force",
                {"a": 2.0, "b": 0.5, "c": 1.0, "kappa_v": 1.0, "c_w": 1.0, "d": 1},
            )
        )
        for _ in range(10):
            x = rng.normal()
            mu = EmpiricalMeasure(rng.normal(size=(5, 1)))
            assert drift_S(state, x, mu)[0] == pytest.approx(
                drift_S(extension, x, mu)[0], abs=1e-12
            )
            assert drift_S_tilde(state, x, mu)[0] == pytest.approx(
                drift_S_tilde(extension, x, mu)[0], abs=1e-12
            )


class TestMeasureDependentNoise:
    def test_drifts_use_sigma_of_the_measure(self):
        # extension mode with sigma(x, mu) = s0 + s1 * mean_y 1/(1+(x-y)^2):
        # both corrections must evaluate sigma against the measure, which a
        # hand-composed d = 1 oracle pins down
        a, b, c, s0, s1 = 2.0, 0.5, 1.0, 0.8, 0.6
        base = interaction(a=a, b=b, c=c, d=1)

        def noise(X, S):
            diff = X[:, :, None, :] - S[:, None, :, :]
            bump = (1.0 / (1.0 + np.sum(diff * diff, axis=-1))).mean(axis=2)
            return (s0 + s1 * bump)[..., None, None]

        model = SystemModel(
            dim=1,
            noise_dim=1,
            force=lambda X, S: -X,
            noise=noise,
            friction=base._friction,
            friction_dx=base._friction_dx,
            friction_dmu=base._friction_dmu,
            mode="extension",
        )
        # the interaction closures' derivatives come in the diagonal form
        one = np.zeros((1, 1, 1))
        assert model.friction_dx_field(one, one).shape == (1, 1, 1, 1)
        assert model.friction_dmu_field(one, one, one).shape == (1, 1, 1, 1, 1)
        rng = np.random.default_rng(401)
        for _ in range(10):
            x = float(rng.normal())
            pts = rng.normal(size=(5, 1))
            mu = EmpiricalMeasure(pts)
            g_x = model.friction(x, mu)[0, 0]
            gp = model.friction_dx(x, mu)[0, 0, 0]
            sig_x = model.noise(x, mu)[0, 0]
            ref_S = (-gp / g_x ** 2) * (sig_x ** 2 / (2.0 * g_x))
            assert drift_S(model, x, mu)[0] == pytest.approx(ref_S, abs=1e-12)
            acc = 0.0
            for y in pts[:, 0]:
                g_y = model.friction(y, mu)[0, 0]
                sig_y = model.noise(y, mu)[0, 0]
                dmu = model.friction_dmu(x, mu, y)[0, 0, 0]
                acc += (-dmu / g_x ** 2) * (sig_x * sig_y / (g_x + g_y))
            ref_St = acc / len(pts)
            assert drift_S_tilde(model, x, mu)[0] == pytest.approx(ref_St, abs=1e-12)


class TestDriftMagnitudes:
    def test_finite_and_bounded_on_probes(self):
        rng = np.random.default_rng(229)
        model = interaction(a=2.0, b=0.5, c=1.0, d=2)
        for _ in range(50):
            x = rng.normal(size=2) * 2.0
            mu = EmpiricalMeasure(rng.normal(size=(8, 2)) * 2.0)
            S = drift_S(model, x, mu)
            St = drift_S_tilde(model, x, mu)
            assert np.all(np.isfinite(S)) and np.all(np.isfinite(St))
            assert np.abs(S).max() < DRIFT_MAGNITUDE_CAP
            assert np.abs(St).max() < DRIFT_MAGNITUDE_CAP


class TestEnsembleFields:
    def test_matches_point_operations(self):
        # point references that do not go through limit_drift_fields.
        # S: finite-difference sandwich composed with a Lyapunov solve.
        # S~: the interaction friction is diagonal, so the Sylvester solution
        # is J~_jl = (sigma sigma^T)_jl / (gamma_jj(x) + gamma_ll(y)), and
        # d_mu gamma^{-1}_ij = -(d_mu gamma)_ij / (gamma_ii gamma_jj); the
        # average over the ensemble is summed by hand.
        rng = np.random.default_rng(231)
        for d, sigma in ((1, 0.9), (2, [[1.0, 0.3], [0.0, 0.8]])):
            model = interaction(a=2.0, b=0.5, c=1.0, d=d, sigma=sigma)
            X = rng.normal(size=(2, 5, d))
            ginv_f, S, S_t, ginv_sigma = limit_drift_fields(model, X)
            assert np.abs(S).max() > 1e-3 and np.abs(S_t).max() > 1e-3
            for bi in range(2):
                mu = EmpiricalMeasure(X[bi])
                for ni in range(5):
                    x = X[bi, ni]
                    g = model.friction(x, mu)
                    sig = model.noise(x, mu)
                    f_ref = np.linalg.solve(g, model.force(x, mu))
                    assert np.abs(ginv_f[bi, ni] - f_ref).max() <= 1e-12

                    J = linalg.solve_lyapunov(g, sig @ sig.T)
                    S_ref = np.einsum("ijl,jl->i", fd_gamma_inv_dx(model, x, mu), J)
                    assert np.abs(S[bi, ni] - S_ref).max() <= 1e-8

                    S_t_ref = np.zeros(d)
                    for y in X[bi]:
                        g_y = model.friction(y, mu)
                        sig_y = model.noise(y, mu)
                        D = model.friction_dmu(x, mu, y)
                        for i in range(d):
                            for j in range(d):
                                for l in range(d):
                                    j_t = (sig @ sig_y.T)[j, l] / (g[j, j] + g_y[l, l])
                                    S_t_ref[i] -= D[i, j, l] / (g[i, i] * g[j, j]) * j_t
                    S_t_ref /= len(X[bi])
                    assert np.abs(S_t[bi, ni] - S_t_ref).max() <= 1e-12

                    sig_ref = np.linalg.inv(g) @ sig
                    assert np.abs(ginv_sigma[bi, ni] - sig_ref).max() <= 1e-12

    def test_constant_family_gives_exact_zero_corrections(self):
        model = model_library(ModelSpec("constant", {"gamma0": 2.0, "d": 2}))
        X = np.random.default_rng(0).normal(size=(3, 4, 2))
        _, S, S_t, _ = limit_drift_fields(model, X)
        assert np.array_equal(S, np.zeros_like(S))
        assert np.array_equal(S_t, np.zeros_like(S_t))

    def test_nan_friction_raises(self):
        # NaN compares false against the stability floor in both directions
        broken = SystemModel(
            dim=1,
            noise_dim=1,
            force=lambda X, S: -X,
            noise=lambda X, S: np.ones(X.shape + (1,)),
            friction=lambda X, S: np.full(X.shape + (1,), np.nan),
        )
        with pytest.raises(UnstableFriction):
            limit_drift_fields(broken, np.zeros((2, 3, 1)))

    @pytest.mark.parametrize(
        "gamma",
        [[[np.inf]], [[np.inf, 0.0], [0.0, 2.0]], [[2.0, np.inf], [0.0, 2.0]]],
        ids=["d1", "d2-diagonal", "d2-dense"],
    )
    def test_infinite_friction_raises(self, gamma):
        # one rule at every d, on diagonal and dense stacks alike
        gamma = np.array(gamma)
        d = len(gamma)
        broken = SystemModel(
            dim=d,
            noise_dim=d,
            force=lambda X, S: -X,
            noise=lambda X, S: np.broadcast_to(np.eye(d), X.shape + (d,)),
            friction=lambda X, S: np.broadcast_to(gamma, X.shape + (d,)),
        )
        with pytest.raises(UnstableFriction):
            limit_drift_fields(broken, np.zeros((2, 3, d)))


    @pytest.mark.parametrize("samples", ["own", "given"])
    def test_gamma_is_factored_once_per_call(self, monkeypatch, samples):
        # J and J~ share gamma(x)'s eigenbasis: B * N matrices reach eig once,
        # and given samples add their own B * n.  A constant skew part makes
        # gamma non-diagonal; the diagonal interaction friction itself has
        # exact factors and reaches eig zero times.
        factored = []
        eig = np.linalg.eig

        def counted(a):
            factored.append(int(np.prod(np.shape(a)[:-2])))
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        B, N, n = 3, 5, 4
        diagonal = interaction(d=2, sigma=[[1.0, 0.3], [0.0, 0.8]])
        skew = np.array([[0.0, 0.4], [-0.4, 0.0]])
        dense = SystemModel(
            2, 2, diagonal.force_field, diagonal.noise_field,
            lambda X, S: diagonal.friction_field(X, S) + skew,
            lambda X, S: diagonal.dense_derivative(diagonal.friction_dx_field(X, S), 2),
            lambda X, S, Y: diagonal.dense_derivative(diagonal.friction_dmu_field(X, S, Y), 3),
        )
        rng = np.random.default_rng(17)
        X = rng.normal(size=(B, N, 2))
        samples = None if samples == "own" else rng.normal(size=(B, n, 2))
        limit_drift_fields(dense, X, samples)
        assert sorted(factored) == ([B * N] if samples is None else [B * n, B * N])
        factored.clear()
        limit_drift_fields(diagonal, X, samples)
        assert factored == []


class TestLimitDriftInputs:
    # empty or mismatched points and samples are refused before any
    # coefficient is evaluated, not as a RuntimeWarning, an UnstableFriction
    # or a bare ValueError from deep in a kernel
    @pytest.mark.parametrize(
        "d, X_shape, samples_shape",
        [
            (1, (2, 3, 1), (2, 0, 1)),
            (1, (1, 0, 1), None),
            (1, (0, 2, 1), None),
            (1, (2, 3, 1), (3, 4, 1)),
            (2, (2, 3, 2), (2, 4, 1)),
            (1, (2, 3, 2), None),
        ],
        ids=["no-samples", "no-points", "no-ensembles", "samples-of-another-batch",
             "samples-of-another-dimension", "points-of-another-dimension"],
    )
    def test_refused_before_any_friction_call(self, monkeypatch, d, X_shape, samples_shape):
        model = interaction(d=d)

        def refuse(X, S):
            raise AssertionError("friction evaluated")

        monkeypatch.setattr(model, "friction_field", refuse)
        samples = None if samples_shape is None else np.zeros(samples_shape)
        with pytest.raises(ValidationError):
            limit_drift_fields(model, np.zeros(X_shape), samples)

    def test_nested_lists_are_converted_as_the_point_functions_convert(self):
        model = interaction()
        X = np.array([[[0.1], [0.2]]])
        got = limit_drift_fields(model, X.tolist())
        want = limit_drift_fields(model, X)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        with pytest.raises(ValidationError):
            limit_drift_fields(model, [[[0.1], [0.2, 0.3]]])   # ragged
        with pytest.raises(ValidationError):
            limit_drift_fields(model, X, [[["a"]]])

    def test_a_float_array_is_used_with_no_copy(self, monkeypatch):
        # the limit step's hot path: the points reach the coefficients as given
        model = interaction()
        X = np.array([[[0.1], [0.2]]])
        seen = []
        friction = model.friction_field

        def spy(X, S):
            seen.append(X)
            return friction(X, S)

        monkeypatch.setattr(model, "friction_field", spy)
        limit_drift_fields(model, X)
        assert seen[0] is X


class TestPointDriftsAlone:
    # drift_S and drift_S_tilde each compute their own correction only, with
    # the bits of their row of limit_drift_fields
    def setup_method(self):
        self.model = interaction(d=2, sigma=[[1.0, 0.3], [0.0, 0.8]])
        rng = np.random.default_rng(23)
        self.x = rng.normal(size=2)
        self.mu = EmpiricalMeasure(rng.normal(size=(16, 2)))

    def counted(self, monkeypatch):
        calls = {"lyapunov_batch": 0, "sylvester_batch": 0, "friction_dmu_field": 0}

        def count(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        count(linalg, "lyapunov_batch")
        count(linalg, "sylvester_batch")
        count(self.model, "friction_dmu_field")
        return calls

    def test_drift_S_solves_no_sylvester_and_takes_no_measure_derivative(self, monkeypatch):
        calls = self.counted(monkeypatch)
        drift_S(self.model, self.x, self.mu)
        assert calls == {"lyapunov_batch": 1, "sylvester_batch": 0, "friction_dmu_field": 0}

    def test_drift_S_tilde_solves_no_lyapunov(self, monkeypatch):
        calls = self.counted(monkeypatch)
        drift_S_tilde(self.model, self.x, self.mu)
        assert calls == {"lyapunov_batch": 0, "sylvester_batch": 1, "friction_dmu_field": 1}

    def test_rows_of_limit_drift_fields(self):
        _, S, S_t, _ = limit_drift_fields(self.model, self.x[None, None], self.mu.samples[None])
        assert drift_S(self.model, self.x, self.mu).tobytes() == S[0, 0].tobytes()
        assert drift_S_tilde(self.model, self.x, self.mu).tobytes() == S_t[0, 0].tobytes()


def _reference_closures(a, b, c, d):
    """The interaction friction closures as plain formulas: np.sum over the
    components, fresh temporaries and fancy-index writes."""
    idx = np.arange(d)

    def friction(X, S):
        B, m, _ = X.shape
        diff = X[:, :, None, :] - S[:, None, :, :]
        psi = (c / (1.0 + np.sum(diff * diff, axis=-1))).mean(axis=2)
        out = np.zeros((B, m, d, d))
        out[..., idx, idx] = a + b * np.tanh(X) + psi[..., None]
        return out

    def friction_dx(X, S):
        B, m, _ = X.shape
        diff = X[:, :, None, :] - S[:, None, :, :]
        q = 1.0 + np.sum(diff * diff, axis=-1)
        grad_psi = (-2.0 * c) * (diff / (q * q)[..., None]).mean(axis=2)
        sech2 = 1.0 / np.cosh(X) ** 2
        out = np.zeros((B, m, d, d, d))
        out[..., idx, idx, idx] = b * sech2
        out[..., idx, idx, :] += grad_psi[:, :, None, :]
        return out

    def friction_dmu(X, S, Y):
        B, m, _ = X.shape
        n = Y.shape[1]
        diff = X[:, :, None, :] - Y[:, None, :, :]
        q = 1.0 + np.sum(diff * diff, axis=-1)
        grad_y = 2.0 * c * diff / (q * q)[..., None]
        out = np.zeros((B, m, n, d, d, d))
        out[..., idx, idx, :] = grad_y[:, :, :, None, :]
        return out

    return friction, friction_dx, friction_dmu


class TestPairwiseClosures:
    # one closure set serves every d, with temporaries updated in place and
    # strided diagonal writes; below 8 components np.sum is a left fold, so it
    # must give the bits of the plain formulas, for a measure that is the
    # ensemble itself and for given samples; n = 9000 spans more than one
    # 8192-element block of the strided mean over the samples, and the Lions
    # derivative is taken at as many of them as keep it within 2^21 values.
    # The derivatives come in the diagonal form and are compared laid out by
    # the model's expansion.
    @pytest.mark.parametrize("samples", ["own", "given"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_same_bits_as_the_plain_formulas(self, d, samples):
        from smallmass import models

        a, b, c = 2.0, -0.6, 0.8
        want = _reference_closures(a, b, c, d)
        friction, friction_dx, friction_dmu = models._pairwise_closures(a, b, c, d)
        model = SystemModel(d, d, None, None, friction, friction_dx, friction_dmu)
        got = (model.friction_field,
               lambda X, S: model.dense_derivative(model.friction_dx_field(X, S), 2),
               lambda X, S, Y: model.dense_derivative(model.friction_dmu_field(X, S, Y), 3))
        rng = np.random.default_rng(29 + d)
        for B, m, n in ((16, 64, 64), (2, 3, 7), (1, 1, 1), (1, 2, 9000)):
            X = rng.normal(size=(B, m, d))
            S = X if samples == "own" else rng.normal(size=(B, n, d))
            Y = S[:, : max(1, 2 ** 21 // (B * m * d ** 3))]   # d^3 values a pair
            assert friction_dx(X, S).shape == (B, m, d, d)
            assert friction_dmu(X, S, Y).shape == (B, m, Y.shape[1], d, d)
            for args, w, g in zip(((X, S), (X, S), (X, S, Y)), want, got):
                w, g = w(*args), g(*args)
                assert w.shape == g.shape and w.tobytes() == g.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_carrillo_force_same_bits_as_the_plain_formula(self, d):
        c_w, kappa_v = 0.7, 1.3
        model = model_library(ModelSpec(
            "carrillo-force", {"a": 2.0, "b": 0.5, "c": 1.0, "d": d, "c_w": c_w, "kappa_v": kappa_v}
        ))
        rng = np.random.default_rng(31 + d)
        for B, m, n in ((16, 64, 64), (1, 1, 1), (1, 2, 9000)):
            X = rng.normal(size=(B, m, d))
            for S in (X, rng.normal(size=(B, n, d))):
                diff = X[:, :, None, :] - S[:, None, :, :]
                root = np.sqrt(1.0 + np.sum(diff * diff, axis=-1))
                want = -kappa_v * X - c_w * (diff / root[..., None]).mean(axis=2)
                got = model.force_field(X, S)
                assert want.shape == got.shape and want.tobytes() == got.tobytes()


class TestConstantCoefficient:
    # the view of a constant coefficient is built once per (B, m) shape and
    # handed out again; a new shape replaces it, so alternating between a
    # batch and the point API's (1, 1) still gives the right view each time
    def test_alternating_shapes(self):
        from smallmass import models

        matrix = np.array([[1.0, 0.5], [-0.25, 2.0]])
        field = models._constant(matrix)
        for B, m in ((16, 3), (1, 1), (16, 3), (16, 3), (16, 5), (4, 5), (1, 1)):
            got = field(np.zeros((B, m, 2)), None)
            assert got.shape == (B, m, 2, 2)
            assert np.array_equal(got, np.broadcast_to(matrix, (B, m, 2, 2)))
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0, 0, 0] = 7.0
        assert np.array_equal(matrix, [[1.0, 0.5], [-0.25, 2.0]])

    def test_same_view_while_the_shape_repeats(self):
        from smallmass import models

        field = models._constant(np.eye(3))
        X = np.zeros((8, 2, 3))
        first = field(X, None)
        assert field(X, None) is first
        assert field(np.zeros((1, 1, 3)), None) is not first
        assert field(X, None).shape == (8, 2, 3, 3)


class TestDifferences:
    # x repeated along n with y subtracted in place: the bits of the broadcast
    # subtract, for samples that are not the points and n != m
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_same_bits_as_the_broadcast_subtract(self, d):
        from smallmass import models

        rng = np.random.default_rng(41 + d)
        for B, m, n in ((3, 5, 7), (1, 1, 1), (2, 9, 4)):
            X = rng.normal(size=(B, m, d)) * 10.0 ** rng.integers(-8, 8, size=(B, m, d))
            Y = rng.normal(size=(B, n, d)) * 10.0 ** rng.integers(-8, 8, size=(B, n, d))
            want = X[:, :, None, :] - Y[:, None, :, :]
            got = models._differences(X, Y)
            assert got.shape == (B, m, n, d) and got.tobytes() == want.tobytes()
            assert got.flags.writeable and got.flags.c_contiguous


def _dense_twin(model):
    """The model with both derivatives in the dense form, each the expansion
    of the model's own (None where it is None)."""
    return SystemModel(
        model.dim, model.noise_dim, model._force, model._noise, model._friction,
        None if model.dx_is_zero else
        lambda X, S: model.dense_derivative(model.friction_dx_field(X, S), 2),
        None if model.dmu_is_zero else
        lambda X, S, Y: model.dense_derivative(model.friction_dmu_field(X, S, Y), 3),
        mode=model.mode,
    )


_CONTRACT_CASES = [("scalar-state", 1)] + [
    (family, d) for family in ("interaction", "carrillo-force") for d in (1, 2, 3, 4)
]


class TestDiagonalContract:
    # the families with an x- or mu-dependent friction give its derivatives in
    # the diagonal form; laid out by the expansion, they are the plain dense
    # formulas bit for bit, and the limit drifts are those of the same model
    # with dense derivatives.  The form is the derivative's own: a dense gamma
    # may have diagonal-form derivatives, and one derivative may come in each
    # form, with the drifts of the all-dense twin all the same.
    @staticmethod
    def build(family, d):
        a, b, c = 2.0, -0.6, 0.8
        if family == "scalar-state":
            return model_library(ModelSpec(family, {"a": a, "b": b, "sigma": 0.7})), (a, b, c)
        sigma = (np.eye(d) + 0.3 * np.cos(np.arange(d * d)).reshape(d, d)).tolist()
        params = {"a": a, "b": b, "c": c, "d": d, "sigma": sigma}
        return model_library(ModelSpec(family, params)), (a, b, c)

    @pytest.mark.parametrize("family, d", _CONTRACT_CASES)
    def test_expanded_derivatives_are_the_dense_formulas(self, family, d):
        model, (a, b, c) = self.build(family, d)
        if family == "scalar-state":   # the tanh profile alone, no measure term
            def want_dx(X, S):
                return b * (1.0 / np.cosh(X) ** 2)[..., None, None]

            def want_dmu(X, S, Y):
                return np.zeros(X.shape[:2] + (Y.shape[1], 1, 1, 1))
        else:
            _, want_dx, want_dmu = _reference_closures(a, b, c, d)
        rng = np.random.default_rng(71 + d)
        for B, m, n in ((3, 6, 6), (2, 3, 7), (1, 1, 1)):
            X, S = rng.normal(size=(B, m, d)), rng.normal(size=(B, n, d))
            dx, dmu = model.friction_dx_field(X, S), model.friction_dmu_field(X, S, S)
            assert dx.shape == (B, m, d, d) and dmu.shape == (B, m, n, d, d)
            for got, want in ((model.dense_derivative(dx, 2), want_dx(X, S)),
                              (model.dense_derivative(dmu, 3), want_dmu(X, S, S))):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @staticmethod
    def assert_same_drifts(model, dense, seed):
        d = model.dim
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(3, 7, d))
        for samples in (None, rng.normal(size=(3, 5, d))):
            got, want = limit_drift_fields(model, X, samples), limit_drift_fields(dense, X, samples)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        mu = EmpiricalMeasure(rng.normal(size=(6, d)))
        for x in (X[0, 0], mu.samples[2]):
            for point in (drift_S, drift_S_tilde, gamma_inv_dx,
                          lambda m, x, mu: gamma_inv_dmu(m, x, mu, mu.samples[1])):
                assert point(model, x, mu).tobytes() == point(dense, x, mu).tobytes()

    @pytest.mark.parametrize("family, d", _CONTRACT_CASES)
    def test_drifts_are_those_of_the_dense_contract(self, family, d):
        model, _ = self.build(family, d)
        dense = _dense_twin(model)
        X = np.zeros((1, 2, d))
        assert dense.friction_dx_field(X, X).shape == (1, 2, d, d, d)
        assert dense.dmu_is_zero or dense.friction_dmu_field(X, X, X).shape == (1, 2, 2, d, d, d)
        self.assert_same_drifts(model, dense, 73 + d)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("forms", ["dense-gamma", "dx-dense", "dmu-dense"])
    def test_either_form_under_any_gamma(self, forms, d):
        base, _ = self.build("interaction", d)
        skew = 0.4 * (np.triu(np.ones((d, d)), 1) - np.tril(np.ones((d, d)), -1))
        friction, dx, dmu = base._friction, base._friction_dx, base._friction_dmu
        if forms == "dense-gamma":   # gamma off the diagonal, both derivatives diagonal
            def friction(X, S):
                return base.friction_field(X, S) + skew
        elif forms == "dx-dense":
            def dx(X, S):
                return base.dense_derivative(base.friction_dx_field(X, S), 2)
        else:
            def dmu(X, S, Y):
                return base.dense_derivative(base.friction_dmu_field(X, S, Y), 3)
        model = SystemModel(d, d, base._force, base._noise, friction, dx, dmu)
        X = np.zeros((1, 2, d))
        ranks = model.friction_dx_field(X, X).ndim, model.friction_dmu_field(X, X, X).ndim
        assert ranks == {"dense-gamma": (4, 5), "dx-dense": (5, 5), "dmu-dense": (4, 6)}[forms]
        self.assert_same_drifts(model, _dense_twin(model), 79 + d)

    def test_zero_derivatives_take_the_diagonal_form(self):
        def eye(X, S):
            return np.broadcast_to(np.eye(2), X.shape + (2,))

        model = SystemModel(2, 2, lambda X, S: -X, eye, eye)
        X = np.zeros((3, 4, 2))
        assert model.friction_dx_field(X, X).shape == (3, 4, 2, 2)
        assert model.friction_dmu_field(X, X, X[:, :2]).shape == (3, 4, 2, 2, 2)
        mu = EmpiricalMeasure(np.zeros((2, 2)))
        assert np.array_equal(model.friction_dx(np.zeros(2), mu), np.zeros((2, 2, 2)))
        assert np.array_equal(model.friction_dmu(np.zeros(2), mu, np.ones(2)), np.zeros((2, 2, 2)))


class TestNoiseProducts:
    # a noise that is one matrix everywhere makes one sigma sigma^T, which the
    # solves broadcast, with the bits of every pair's own product
    @pytest.mark.parametrize("d, k", [(1, 1), (1, 3), (2, 2), (3, 3), (4, 4), (4, 2)])
    def test_one_product_has_every_pairs_bits(self, d, k):
        from smallmass import models

        rng = np.random.default_rng(79 + d + k)
        sigmas = [rng.normal(size=(d, k))] + ([np.diag(rng.normal(size=d))] if d == k else [])
        for sigma in sigmas:
            sig = np.ascontiguousarray(np.broadcast_to(sigma, (3, 5, d, k)))
            sig_y = np.ascontiguousarray(np.broadcast_to(sigma, (3, 4, d, k)))
            pairs = linalg.matmat(sig[:, :, None], np.swapaxes(sig_y, -1, -2)[:, None])
            points = linalg.matmat(sig, np.swapaxes(sig, -1, -2))
            for got, want in ((models._noise_products(sig, sig_y), pairs),
                              (models._noise_products(sig, sig), pairs[:, :, :1].repeat(5, 2)),
                              (models._noise_products(sig), points)):
                assert got.shape == (d, d)
                assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes()

    def test_a_stack_that_differs_by_a_signed_zero_takes_every_pair(self):
        from smallmass import models

        sig = np.zeros((2, 3, 2, 2))
        sig[...] = [[1.0, 0.0], [0.5, 1.0]]
        sig[1, 2, 0, 1] = -0.0
        assert models._noise_products(sig).shape == (2, 3, 2, 2)
        assert models._noise_products(sig, sig).shape == (2, 3, 3, 2, 2)


def test_limit_drift_memory_budget():
    # the d = 4 interaction family at N = 256: no d^3 derivative tensor and
    # no per-pair sigma sigma^T, so the peak stays within 24 MB (58 MB with
    # dense derivatives and pairwise products)
    import tracemalloc

    sigma = (np.eye(4) + 0.3 * np.cos(np.arange(16)).reshape(4, 4)).tolist()
    model = interaction(d=4, sigma=sigma)
    X = np.random.default_rng(83).normal(size=(1, 256, 4))
    limit_drift_fields(model, X)   # the constant noise's copy for this shape
    tracemalloc.start()
    try:
        limit_drift_fields(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20
