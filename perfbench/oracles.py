"""Reference computations written from the family formulas, not from the
model closures of the package.

* Interaction family: gamma(x, mu) = a I + b diag(tanh x) + mean_y c/(1+|x-y|^2) I
  is diagonal and sigma is constant, so the Lyapunov and Sylvester solutions
  are elementwise, J_ij = (sigma sigma^T)_ij / (gamma_ii + gamma_jj) and
  J~_ij(x, y) = (sigma sigma^T)_ij / (gamma_ii(x) + gamma_jj(y)), and both
  correction drifts have closed forms.
* Constant family: the limit equation is the plain overdamped Euler scheme
  x += gamma0^{-1} (-K x) Delta + gamma0^{-1} sigma dW.
"""

from __future__ import annotations

import numpy as np

DRIFT_RTOL = 1e-10
PATH_RTOL = 1e-12


def _coefficient(params, name, shape, default=None):
    value = np.asarray(params.get(name, default), dtype=float)
    return value * np.eye(*shape) if value.ndim == 0 else value


def interaction_drifts(params: dict, X: np.ndarray):
    """Closed-form S and S~ for ensembles X of shape (B, N, d), each ensemble
    being its own empirical measure (self sample included)."""
    a, b, c = float(params["a"]), float(params["b"]), float(params["c"])
    d = X.shape[-1]
    k = int(params.get("k", d))
    sigma = _coefficient(params, "sigma", (d, k), 1.0)
    Q = sigma @ sigma.T

    diff = X[:, :, None, :] - X[:, None, :, :]          # x_n - y_m: (B, N, N, d)
    q = 1.0 + np.sum(diff * diff, axis=-1)               # (B, N, N)
    g = a + b * np.tanh(X) + (c / q).mean(axis=2)[..., None]   # gamma_ii(x_n): (B, N, d)

    # S_i = sum_l -(d gamma_ii / d x_l) / gamma_ii^2 * J_il
    J = Q / (g[..., :, None] + g[..., None, :])          # (B, N, d, d)
    dgam = np.broadcast_to(
        (-2.0 * c * diff / (q * q)[..., None]).mean(axis=2)[..., None, :],
        X.shape + (d,),
    ).copy()                                             # [..., i, l]
    idx = np.arange(d)
    dgam[..., idx, idx] += b / np.cosh(X) ** 2
    S = np.sum(-dgam / (g * g)[..., None] * J, axis=-1)

    # S~_i = mean_y sum_l -(grad_y psi)_l / gamma_ii(x)^2 * J~_il(x, y)
    J_t = Q / (g[:, :, None, :, None] + g[:, None, :, None, :])   # (B, N, N, d, d)
    grad_y = 2.0 * c * diff / (q * q)[..., None]         # (B, N, N, d)
    S_t = np.sum(
        -grad_y[..., None, :] / (g * g)[:, :, None, :, None] * J_t, axis=-1
    ).mean(axis=2)
    return S, S_t


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| over max |want| (absolute when want is all zero)."""
    scale = float(np.max(np.abs(want))) or 1.0
    return float(np.max(np.abs(np.asarray(got) - want))) / scale


def overdamped_euler(params: dict, Delta: float, dw: np.ndarray, x0: np.ndarray):
    """Constant-family limit path driven by increments dw (n_steps, N, k),
    started at x0 (N, d); returns (n_steps + 1, N, d)."""
    d = x0.shape[-1]
    k = dw.shape[-1]
    gamma0 = _coefficient(params, "gamma0", (d, d))
    K = _coefficient(params, "K", (d, d), 1.0)
    sigma = _coefficient(params, "sigma", (d, k), 1.0)
    ginv = np.linalg.inv(gamma0)
    drift_gain = ginv @ -K
    noise_gain = ginv @ sigma
    out = np.empty((dw.shape[0] + 1,) + x0.shape)
    out[0] = x = x0
    for j, inc in enumerate(dw):
        x = x + (x @ drift_gain.T) * Delta + inc @ noise_gain.T
        out[j + 1] = x
    return out
