"""A non-normal, measure-dependent friction, checked against oracles that do
not go through ``limit_drift_fields``.

The family is gamma(x, mu) = gamma_interaction(x, mu) + omega mean_y phi(x - y)
Omega, with phi(z) = exp(-|z|^2 / 2) and a fixed skew Omega.  The skew part
leaves sym(gamma) as the interaction family has it, so the friction stays
stable, while the distinct diagonal entries a + b tanh(x_i) + psi make gamma
non-normal, with complex eigenpairs where the skew part dominates.  Force and
noise read the measure too (extension mode).  Every built-in friction is
diagonal, so this is the family on which gamma(x) and gamma(y) do not commute
in the Sylvester solve of S~.

The oracles: gamma^{-1} differenced centrally (five points) in x, and in one
measure sample y (the Lions derivative of a linear functional of mu is grad_y
of its kernel, so moving one of n samples by h moves gamma by h/n times it),
and J, J~ by the semigroup integrals of ``lyapunov_by_quadrature`` /
``sylvester_by_quadrature``.
"""

import numpy as np
import pytest

from smallmass import linalg
from smallmass.dynamics import _run_replicas, simulate_coupled
from smallmass.measures import EmpiricalMeasure
from smallmass.models import (
    MODE_EXTENSION,
    ModelSpec,
    SystemModel,
    drift_S,
    drift_S_tilde,
    limit_drift_fields,
    model_library,
)

QUAD_TOL = 1e-12
FD_STEP = 1e-3


def skew(d):
    A = np.cos(np.arange(d * d, dtype=float) + 1.0).reshape(d, d)
    return A - A.T


def nonnormal(d, omega=1.5, tau=0.3):
    base = model_library(ModelSpec("interaction", {"a": 2.0, "b": 0.8, "c": 1.0, "d": d}))
    Omega = skew(d)
    sigma0 = np.eye(d) + 0.3 * np.sin(np.arange(d * d, dtype=float)).reshape(d, d)

    def kernel(X, S):
        diff = X[:, :, None, :] - S[:, None, :, :]                    # (B, m, n, d)
        return diff, np.exp(-0.5 * np.sum(diff * diff, axis=-1))     # phi: (B, m, n)

    def force(X, S):
        return -X + 0.5 * (S.mean(axis=1)[:, None, :] - X)

    def noise(X, S):
        wave = np.sin(X[:, :, None, :, None] - S[:, None, :, None, :]).mean(axis=2)
        return sigma0 + tau * wave

    def friction(X, S):
        _, phi = kernel(X, S)
        skew_part = omega * phi.mean(axis=2)[..., None, None] * Omega
        return base.friction_field(X, S) + skew_part

    def friction_dx(X, S):
        diff, phi = kernel(X, S)
        grad = -(diff * phi[..., None]).mean(axis=2)                  # grad_x mean phi
        dense = base.dense_derivative(base.friction_dx_field(X, S), 2)
        return dense + omega * Omega[:, :, None] * grad[:, :, None, None, :]

    def friction_dmu(X, S, Y):
        diff, phi = kernel(X, Y)
        grad_y = diff * phi[..., None]                                # grad_y phi(x - y)
        skew_part = omega * Omega[:, :, None] * grad_y[:, :, :, None, None, :]
        return base.dense_derivative(base.friction_dmu_field(X, S, Y), 3) + skew_part

    return SystemModel(
        d, d, force, noise, friction, friction_dx, friction_dmu, mode=MODE_EXTENSION
    )


def five_point(f, h=FD_STEP):
    return (f(-2.0 * h) - 8.0 * f(-h) + 8.0 * f(h) - f(2.0 * h)) / (12.0 * h)


def fd_ginv_dx(model, x, mu):
    d = model.dim
    return np.stack(
        [five_point(lambda h: np.linalg.inv(model.friction(x + h * e, mu))) for e in np.eye(d)],
        axis=-1,
    )


def fd_ginv_dmu(model, x, samples, m):
    n, d = samples.shape

    def moved(h, e):
        pts = samples.copy()
        pts[m] += h * e
        return np.linalg.inv(model.friction(x, EmpiricalMeasure(pts)))

    return n * np.stack([five_point(lambda h: moved(h, e)) for e in np.eye(d)], axis=-1)


def oracle_drifts(model, x, samples):
    """(S, S~) at x against the measure of ``samples``, from differences of
    gamma^{-1} and the quadrature oracles alone."""
    mu = EmpiricalMeasure(samples)
    g, sig = model.friction(x, mu), model.noise(x, mu)
    J = linalg.lyapunov_by_quadrature(g, sig @ sig.T, QUAD_TOL)
    S = np.einsum("ijl,jl->i", fd_ginv_dx(model, x, mu), J)
    S_t = np.zeros(model.dim)
    for m, y in enumerate(samples):
        g_y, sig_y = model.friction(y, mu), model.noise(y, mu)
        J_t = linalg.sylvester_by_quadrature(-g, g_y.T, -sig @ sig_y.T, QUAD_TOL)
        S_t += np.einsum("ijl,jl->i", fd_ginv_dmu(model, x, samples, m), J_t)
    return S, S_t / len(samples)


def assert_close(got, ref, rtol=1e-8):
    assert np.abs(ref).max() > 1e-3
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("d", [2, 3])
def test_the_family_is_stable_non_normal_with_complex_eigenpairs(d):
    model = nonnormal(d)
    X = np.random.default_rng(d).normal(size=(1, 6, d))
    g = model.friction_field(X, X)[0]
    assert linalg.min_sym_eig_batch(g).min() >= 2.0 - 0.8
    commutator = g @ np.swapaxes(g, -1, -2) - np.swapaxes(g, -1, -2) @ g
    assert np.abs(commutator).max(axis=(-2, -1)).min() > 1e-2
    assert np.abs(np.linalg.eigvals(g).imag).max() > 0.1


@pytest.mark.parametrize("d", [2, 3])
def test_derivative_closures_match_differences_of_the_friction(d):
    model = nonnormal(d)
    rng = np.random.default_rng(10 + d)
    x, samples = rng.normal(size=d), rng.normal(size=(4, d))
    mu = EmpiricalMeasure(samples)
    dx = np.stack([five_point(lambda h: model.friction(x + h * e, mu)) for e in np.eye(d)], -1)
    assert np.abs(model.friction_dx(x, mu) - dx).max() <= 1e-9
    for m in range(4):
        def moved(h, e):
            pts = samples.copy()
            pts[m] += h * e
            return model.friction(x, EmpiricalMeasure(pts))
        dmu = 4 * np.stack([five_point(lambda h: moved(h, e)) for e in np.eye(d)], -1)
        assert np.abs(model.friction_dmu(x, mu, samples[m]) - dmu).max() <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_point_drifts_match_the_oracles(d):
    model = nonnormal(d)
    rng = np.random.default_rng(20 + d)
    samples = rng.normal(size=(4, d))
    mu = EmpiricalMeasure(samples)
    for x in (rng.normal(size=d), samples[1]):
        S_ref, S_t_ref = oracle_drifts(model, x, samples)
        assert_close(drift_S(model, x, mu), S_ref)
        assert_close(drift_S_tilde(model, x, mu), S_t_ref)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("explicit", [False, True])
def test_limit_drift_fields_match_the_oracles(d, explicit):
    # ensembles that are their own measure, and points against given samples
    model = nonnormal(d)
    rng = np.random.default_rng(30 + d)
    X = rng.normal(size=(2, 3, d))
    samples = rng.normal(size=(2, 4, d)) if explicit else X
    _, S, S_t, _ = limit_drift_fields(model, X, samples if explicit else None)
    for b in range(2):
        for n in range(3):
            S_ref, S_t_ref = oracle_drifts(model, X[b, n], samples[b])
            assert_close(S[b, n], S_ref)
            assert_close(S_t[b, n], S_t_ref)


@pytest.mark.parametrize("d", [2, 3])
def test_spectral_solve_matches_the_kronecker_solve_on_the_family(d):
    model = nonnormal(d)
    rng = np.random.default_rng(40 + d)
    X, samples = rng.normal(size=(2, 8, d)), rng.normal(size=(2, 6, d))
    g, g_y = model.friction_field(X, samples), model.friction_field(samples, samples)
    sig, sig_y = model.noise_field(X, samples), model.noise_field(samples, samples)
    G1, G2 = g[:, :, None], g_y[:, None]
    Q = sig[:, :, None] @ np.swapaxes(sig_y, -1, -2)[:, None]
    Q_x = sig @ np.swapaxes(sig, -1, -2)
    for got, ref in (
        (linalg.sylvester_batch(G1, G2, Q), linalg._solve(G1, G2, Q)),
        (linalg.lyapunov_batch(g, Q_x), linalg._solve(g, g, Q_x)),
    ):
        gap = np.linalg.norm(got - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
        assert gap.max() <= 1e-12


def test_an_exceptional_point_takes_the_fallback_and_matches_the_oracles():
    # at d = 2, gamma(x) = [[p, w], [-w, q]] + psi I is defective where
    # |w| = |p - q| / 2: omega is chosen so that the first point sits there
    d = 2
    X = np.array([[[0.9, -0.4], [0.2, 0.5], [-0.7, 0.1]]])
    phi_bar = np.exp(-0.5 * np.sum((X[0, 0] - X[0]) ** 2, axis=-1)).mean()
    gap = 0.8 * (np.tanh(0.9) - np.tanh(-0.4))
    model = nonnormal(d, omega=0.5 * gap / (phi_bar * abs(skew(d)[0, 1])))
    g = model.friction_field(X, X)
    assert linalg._eigenbasis(g[0, :1])[3].all()
    assert linalg._eigenbasis(g[0, 1:])[3] is None
    # the solves of the drift: the pairs that touch the first point take the
    # fallback's bits, the others the spectral bits they have without it
    sig = model.noise_field(X, X)
    Q = sig[:, :, None] @ np.swapaxes(sig, -1, -2)[:, None]
    G1, G2 = g[:, :, None], g[:, None]
    J, kron = linalg.sylvester_batch(G1, G2, Q), linalg._solve(G1, G2, Q)
    for pairs in ((0, 0), (0, slice(None), 0)):
        assert J[pairs].tobytes() == kron[pairs].tobytes()
    clean = linalg.sylvester_batch(G1[:, 1:], G2[:, :, 1:], Q[:, 1:, 1:])
    assert J[:, 1:, 1:].tobytes() == clean.tobytes()
    Q_x = Q[:, range(3), range(3)]
    J = linalg.lyapunov_batch(g, Q_x)
    assert J[0, 0].tobytes() == linalg._solve(g, g, Q_x)[0, 0].tobytes()
    assert J[:, 1:].tobytes() == linalg.lyapunov_batch(g[:, 1:], Q_x[:, 1:]).tobytes()
    _, S, S_t, _ = limit_drift_fields(model, X)
    for n in range(3):
        S_ref, S_t_ref = oracle_drifts(model, X[0, n], X[0])
        assert_close(S[0, n], S_ref)
        assert_close(S_t[0, n], S_t_ref)


def nearly_defective():
    # gamma(x) = [[2, 1], [0, 2 + 0.1 x_0^2]]: defective at x_0 = 0, so near it
    # the eigenvector condition exceeds the spectral solve's bound
    def friction(X, S):
        g = np.zeros(X.shape[:2] + (2, 2))
        g[..., 0, :] = 2.0, 1.0
        g[..., 1, 1] = 2.0 + 0.1 * X[..., 0] ** 2
        return g

    def friction_dx(X, S):
        D = np.zeros(X.shape[:2] + (2, 2, 2))
        D[..., 1, 1, 0] = 0.2 * X[..., 0]
        return D

    def noise(X, S):
        return np.broadcast_to(np.eye(2), X.shape + (2,))

    return SystemModel(2, 2, lambda X, S: -X, noise, friction, friction_dx)


def test_a_nearly_defective_friction_leaves_the_other_drifts_bits_alone():
    # the drift at x_B is the same stacked after the flagged x_A as alone
    model = nearly_defective()
    x_A, x_B = np.array([[[0.01, 0.3]]]), np.array([[[1.5, -0.4]]])
    assert linalg._eigenbasis(model.friction_field(x_A, x_A))[3].all()
    assert linalg._eigenbasis(model.friction_field(x_B, x_B))[3] is None
    alone = limit_drift_fields(model, x_B)
    stacked = limit_drift_fields(model, np.concatenate([x_A, x_B]))
    for got, want in zip(stacked, alone):
        assert got[1:].tobytes() == want.tobytes()
    assert alone[1][0, 0, 0] == -0.0016115526704808493


def test_a_sweep_row_is_the_replica_run_alone_near_a_defective_friction():
    # replicas whose paths pass near x_0 = 0 share batches with replica 4
    model = nearly_defective()
    x0 = [0.4, 0.0]
    rows = _run_replicas(model, [0.05], [0.0025], 0.5, 0.01, 1, range(8), 3, x0, 0.0)[0]
    for r in (0, 4, 7):
        one = simulate_coupled(model, 0.05, 0.5, 0.0025, 0.01, 1, r, 3, x0=x0)
        assert rows[r] == one.sup_diff
    assert rows[4] == 0.0646005761415917
