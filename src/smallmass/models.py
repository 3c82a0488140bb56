"""System models: force, noise, friction, their derivatives, and the
correction drifts of the overdamped limit.

A :class:`SystemModel` bundles

* the driving force ``F(x)`` (or ``F(x, mu)`` in extension mode),
* the noise coefficient ``sigma(x)`` (or ``sigma(x, mu)``),
* the friction matrix ``gamma(x, mu)`` together with its state derivative
  ``d gamma_ij / d x_l`` and its measure (Lions) derivative
  ``(d_mu gamma_ij(x, mu)(y))_l``.

The limit dynamics carries two correction drifts on top of ``gamma^{-1} F``:

* ``S_i = (d/dx_l gamma^{-1}_ij) J_jl`` with ``J`` solving the Lyapunov
  equation ``gamma J + J gamma^T = sigma sigma^T``;
* ``S~_i = E~[(d_mu gamma^{-1}_ij(x, mu)(y))_l J~_jl(x, y, mu)]`` with
  ``J~`` solving the Sylvester equation
  ``gamma(x) J~ + J~ gamma^T(y) = sigma(x) sigma^T(y)``,
  the expectation running over an independent copy y ~ mu, realized here as
  the average over the samples of an empirical measure (self term included,
  weight 1/N).

Derivatives of the inverse are never differenced numerically: we use the
sandwich identities d_x gamma^{-1} = -gamma^{-1} (d_x gamma) gamma^{-1} and
its measure-derivative analogue.

Batch evaluation conventions (used by the integrators): states are arrays of
shape ``(B, m, d)`` where ``B`` indexes independent ensembles (each with its
own measure) and ``m`` indexes evaluation points; measure samples are
``(B, n, d)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import (
    NonFinite,
    ParameterViolation,
    UnknownFamily,
    UnstableFriction,
    ValidationError,
)
from .measures import EmpiricalMeasure

MODE_STATE_ONLY = "state-only"
MODE_EXTENSION = "extension"

# Magnitude guard used by the drift sanity property: corrections are bounded
# by derivative bounds * |sigma|^2 / c^3 on any probe set; anything beyond
# this cap indicates a broken model.
DRIFT_MAGNITUDE_CAP = 1e6


@dataclass(frozen=True)
class ModelSpec:
    """Name of a built-in family plus its parameter map."""

    family: str
    params: dict = field(default_factory=dict)


class SystemModel:
    """Coefficients of the second-order system and of its overdamped limit.

    Parameters are batch closures with signatures

    * ``force(X, S)   -> (B, m, d)``
    * ``noise(X, S)   -> (B, m, d, k)``
    * ``friction(X, S)    -> (B, m, d, d)``
    * ``friction_dx(X, S) -> (B, m, d, d, d)``   entry [i, j, l]
    * ``friction_dmu(X, S, Y) -> (B, m, n, d, d, d)``  entry [i, j, l] at y_n

    where ``X`` is ``(B, m, d)``, the measure samples ``S`` are ``(B, n, d)``
    and ``Y`` are the evaluation points of the Lions derivative.  State-only
    models simply ignore ``S`` in force and noise.  ``friction_dx`` and
    ``friction_dmu`` may be None, meaning identically zero; the zero flags
    let the integrators skip the corresponding correction exactly.
    """

    def __init__(
        self,
        dim: int,
        noise_dim: int,
        force: Callable,
        noise: Callable,
        friction: Callable,
        friction_dx: Optional[Callable] = None,
        friction_dmu: Optional[Callable] = None,
        mode: str = MODE_STATE_ONLY,
        spec: Optional[ModelSpec] = None,
    ):
        if mode not in (MODE_STATE_ONLY, MODE_EXTENSION):
            raise ValidationError(f"unknown mode {mode!r}")
        if dim < 1 or noise_dim < 1:
            raise ValidationError("dim and noise_dim must be >= 1")
        self.dim = int(dim)
        self.noise_dim = int(noise_dim)
        self.mode = mode
        self.spec = spec
        self._force = force
        self._noise = noise
        self._friction = friction
        self._friction_dx = friction_dx
        self._friction_dmu = friction_dmu
        self.dx_is_zero = friction_dx is None
        self.dmu_is_zero = friction_dmu is None

    # -- batch evaluation ---------------------------------------------------

    def force_field(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        return np.asarray(self._force(X, samples), dtype=float)

    def noise_field(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        return np.asarray(self._noise(X, samples), dtype=float)

    def friction_field(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        return np.asarray(self._friction(X, samples), dtype=float)

    def friction_dx_field(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        B, m, d = X.shape
        if self._friction_dx is None:
            return np.zeros((B, m, d, d, d))
        return np.asarray(self._friction_dx(X, samples), dtype=float)

    def friction_dmu_field(
        self, X: np.ndarray, samples: np.ndarray, Y: np.ndarray
    ) -> np.ndarray:
        B, m, d = X.shape
        n = Y.shape[1]
        if self._friction_dmu is None:
            return np.zeros((B, m, n, d, d, d))
        return np.asarray(self._friction_dmu(X, samples, Y), dtype=float)

    # -- point evaluation ---------------------------------------------------

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != (self.dim,):
            raise ValidationError(f"state must have dimension {self.dim}")
        return x[None, None, :]

    def _samples(self, mu: EmpiricalMeasure) -> np.ndarray:
        if mu.dim != self.dim:
            raise ValidationError(
                f"measure dimension {mu.dim} does not match model dimension {self.dim}"
            )
        return mu.samples[None, :, :]

    def _samples_or_dummy(self, mu: Optional[EmpiricalMeasure], what: str) -> np.ndarray:
        if mu is None:
            if self.mode == MODE_EXTENSION:
                raise ValidationError(f"extension-mode {what} requires a measure")
            return np.zeros((1, 1, self.dim))
        return self._samples(mu)

    def force(self, x, mu: Optional[EmpiricalMeasure] = None) -> np.ndarray:
        return self.force_field(self._point(x), self._samples_or_dummy(mu, "force"))[0, 0]

    def noise(self, x, mu: Optional[EmpiricalMeasure] = None) -> np.ndarray:
        return self.noise_field(self._point(x), self._samples_or_dummy(mu, "noise"))[0, 0]

    def friction(self, x, mu: EmpiricalMeasure) -> np.ndarray:
        return self.friction_field(self._point(x), self._samples(mu))[0, 0]

    def friction_dx(self, x, mu: EmpiricalMeasure) -> np.ndarray:
        return self.friction_dx_field(self._point(x), self._samples(mu))[0, 0]

    def friction_dmu(self, x, mu: EmpiricalMeasure, y) -> np.ndarray:
        Y = np.asarray(y, dtype=float).reshape(1, 1, self.dim)
        return self.friction_dmu_field(self._point(x), self._samples(mu), Y)[0, 0, 0]


# --- built-in families -------------------------------------------------------


def _scalar(params, name, default=None, positive=False):
    if name not in params:
        if default is None:
            raise ParameterViolation(f"missing parameter {name!r}")
        return float(default)
    try:
        value = float(params[name])
    except (TypeError, ValueError) as exc:
        raise ParameterViolation(f"parameter {name!r} must be a real number") from exc
    if positive and value <= 0.0:
        raise ParameterViolation(f"parameter {name!r} must be positive")
    if not np.isfinite(value):
        raise NonFinite(f"parameter {name!r} is not finite")
    return value


def _matrix(params, name, shape, default_scale=None):
    """Parameter that may be a scalar (scale of eye) or a full matrix."""
    value = params.get(name, default_scale)
    if value is None:
        raise ParameterViolation(f"missing parameter {name!r}")
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = float(arr) * np.eye(*shape)
    if arr.shape != shape:
        raise ParameterViolation(f"parameter {name!r} must have shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"parameter {name!r} is not finite")
    return arr


def _reject_unknown(params, allowed, family):
    unknown = set(params) - set(allowed)
    if unknown:
        raise ParameterViolation(
            f"unknown parameter(s) {sorted(unknown)} for family {family!r}"
        )


def _build_constant(params) -> SystemModel:
    _reject_unknown(params, {"d", "k", "gamma0", "K", "sigma"}, "constant")
    d = int(_scalar(params, "d", default=1, positive=True))
    k = int(_scalar(params, "k", default=d, positive=True))
    gamma0 = _matrix(params, "gamma0", (d, d))
    K = _matrix(params, "K", (d, d), default_scale=1.0)
    sigma = _matrix(params, "sigma", (d, k), default_scale=1.0)
    if linalg.min_sym_eig(gamma0) <= linalg.STABILITY_EPS:
        raise ParameterViolation(
            "constant friction must have a positive definite symmetric part"
        )

    def force(X, S):
        return -np.einsum("ij,bmj->bmi", K, X)

    def noise(X, S):
        B, m, _ = X.shape
        return np.broadcast_to(sigma, (B, m, d, k))

    def friction(X, S):
        B, m, _ = X.shape
        return np.broadcast_to(gamma0, (B, m, d, d))

    return SystemModel(d, k, force, noise, friction)


def _build_scalar_state(params) -> SystemModel:
    _reject_unknown(params, {"a", "b", "sigma"}, "scalar-state")
    a = _scalar(params, "a")
    b = _scalar(params, "b")
    sigma = _scalar(params, "sigma", default=1.0)
    if not a > abs(b):
        raise ParameterViolation("scalar-state requires a > |b|")

    def force(X, S):
        return -X

    def noise(X, S):
        return sigma * np.ones(X.shape + (1,))

    def friction(X, S):
        return (a + b * np.tanh(X))[..., None]

    def friction_dx(X, S):
        sech2 = 1.0 / np.cosh(X) ** 2
        return (b * sech2)[..., None, None]

    return SystemModel(1, 1, force, noise, friction, friction_dx=friction_dx)


def _interaction_friction_closures(a, b, c, d):
    """gamma(x, mu) = a I + b diag(tanh x_i) + mean_y psi(x - y) I with the
    rational bump psi(z) = c / (1 + |z|^2)."""

    idx = np.arange(d)

    def friction(X, S):
        B, m, _ = X.shape
        diff = X[:, :, None, :] - S[:, None, :, :]          # (B, m, n, d)
        psi = (c / (1.0 + np.sum(diff * diff, axis=-1))).mean(axis=2)  # (B, m)
        out = np.zeros((B, m, d, d))
        out[..., idx, idx] = a + b * np.tanh(X) + psi[..., None]
        return out

    def friction_dx(X, S):
        B, m, _ = X.shape
        diff = X[:, :, None, :] - S[:, None, :, :]
        q = 1.0 + np.sum(diff * diff, axis=-1)              # (B, m, n)
        grad_psi = (-2.0 * c) * (diff / (q * q)[..., None]).mean(axis=2)  # (B, m, d)
        sech2 = 1.0 / np.cosh(X) ** 2
        out = np.zeros((B, m, d, d, d))
        # diagonal tanh profile: d gamma_ii / d x_i
        out[..., idx, idx, idx] = b * sech2
        # shared psi term: d gamma_ii / d x_l for every i, l
        out[..., idx, idx, :] += grad_psi[:, :, None, :]
        return out

    def friction_dmu(X, S, Y):
        B, m, _ = X.shape
        n = Y.shape[1]
        diff = X[:, :, None, :] - Y[:, None, :, :]          # (B, m, n, d)
        q = 1.0 + np.sum(diff * diff, axis=-1)
        grad_y = 2.0 * c * diff / (q * q)[..., None]        # (B, m, n, d)
        out = np.zeros((B, m, n, d, d, d))
        out[..., idx, idx, :] = grad_y[:, :, :, None, :]
        return out

    return friction, friction_dx, friction_dmu


def _build_interaction(params) -> SystemModel:
    _reject_unknown(params, {"a", "b", "c", "d", "k", "K", "sigma"}, "interaction")
    a = _scalar(params, "a")
    b = _scalar(params, "b")
    c = _scalar(params, "c")
    d = int(_scalar(params, "d", default=1, positive=True))
    k = int(_scalar(params, "k", default=d, positive=True))
    if not a > abs(b):
        raise ParameterViolation("interaction requires a > |b|")
    if c < 0.0:
        raise ParameterViolation("interaction requires c >= 0")
    K = _matrix(params, "K", (d, d), default_scale=1.0)
    sigma = _matrix(params, "sigma", (d, k), default_scale=1.0)

    friction, friction_dx, friction_dmu = _interaction_friction_closures(a, b, c, d)

    def force(X, S):
        return -np.einsum("ij,bmj->bmi", K, X)

    def noise(X, S):
        B, m, _ = X.shape
        return np.broadcast_to(sigma, (B, m, d, k))

    return SystemModel(
        d, k, force, noise, friction,
        friction_dx=friction_dx, friction_dmu=friction_dmu,
    )


def _build_carrillo_force(params) -> SystemModel:
    _reject_unknown(
        params, {"a", "b", "c", "d", "k", "kappa_v", "c_w", "sigma"}, "carrillo-force"
    )
    a = _scalar(params, "a")
    b = _scalar(params, "b")
    c = _scalar(params, "c")
    d = int(_scalar(params, "d", default=1, positive=True))
    k = int(_scalar(params, "k", default=d, positive=True))
    kappa_v = _scalar(params, "kappa_v", default=1.0)
    c_w = _scalar(params, "c_w", default=1.0)
    if not a > abs(b):
        raise ParameterViolation("carrillo-force requires a > |b|")
    if c < 0.0:
        raise ParameterViolation("carrillo-force requires c >= 0")
    sigma = _matrix(params, "sigma", (d, k), default_scale=1.0)

    friction, friction_dx, friction_dmu = _interaction_friction_closures(a, b, c, d)

    def force(X, S):
        # -grad V(x) - mean_y grad W(x - y), V quadratic, W(z) = c_w sqrt(1+|z|^2)
        diff = X[:, :, None, :] - S[:, None, :, :]
        root = np.sqrt(1.0 + np.sum(diff * diff, axis=-1))
        grad_w = c_w * (diff / root[..., None]).mean(axis=2)
        return -kappa_v * X - grad_w

    def noise(X, S):
        B, m, _ = X.shape
        return np.broadcast_to(sigma, (B, m, d, k))

    return SystemModel(
        d, k, force, noise, friction,
        friction_dx=friction_dx, friction_dmu=friction_dmu,
        mode=MODE_EXTENSION,
    )


_REGISTRY = {
    "constant": _build_constant,
    "scalar-state": _build_scalar_state,
    "interaction": _build_interaction,
    "carrillo-force": _build_carrillo_force,
}


def model_library(spec: ModelSpec) -> SystemModel:
    """Instantiate a built-in model family from its spec."""
    if spec.family not in _REGISTRY:
        raise UnknownFamily(
            f"unknown family {spec.family!r}; available: {sorted(_REGISTRY)}"
        )
    model = _REGISTRY[spec.family](dict(spec.params))
    model.spec = spec
    return model


# --- inverse-friction derivatives and correction drifts ----------------------


def _require_stable(gammas: np.ndarray, what: str = "friction"):
    worst = float(linalg.min_sym_eig_batch(gammas).min())
    if worst <= linalg.STABILITY_EPS:
        raise UnstableFriction(
            f"symmetric part of {what} has eigenvalue {worst:.3e} <= {linalg.STABILITY_EPS:.0e}"
        )


def _sandwich(ginv: np.ndarray, D: np.ndarray) -> np.ndarray:
    """-gamma^{-1} (dgamma) gamma^{-1} contracted over the matrix indices of
    every derivative direction l: entry [..., i, j, l]."""
    return -np.einsum("...ip,...pql,...qj->...ijl", ginv, D, ginv)


def _point_inverse_derivative(model: SystemModel, x, mu, D) -> np.ndarray:
    g = model.friction(x, mu)
    _require_stable(g)
    return _sandwich(np.linalg.inv(g), D)


def gamma_inv_dx(model: SystemModel, x, mu: EmpiricalMeasure) -> np.ndarray:
    """(d/dx_l gamma^{-1})_{ij} via the sandwich identity, shape (d, d, d)."""
    return _point_inverse_derivative(model, x, mu, model.friction_dx(x, mu))


def gamma_inv_dmu(model: SystemModel, x, mu: EmpiricalMeasure, y) -> np.ndarray:
    """(d_mu gamma^{-1}_ij(x, mu)(y))_l via the sandwich identity."""
    return _point_inverse_derivative(model, x, mu, model.friction_dmu(x, mu, y))


def _point_drifts(model: SystemModel, x, mu: EmpiricalMeasure):
    _, S, S_t, _ = limit_drift_fields(model, model._point(x), model._samples(mu))
    return S[0, 0], S_t[0, 0]


def drift_S(model: SystemModel, x, mu: EmpiricalMeasure) -> np.ndarray:
    """State-derivative correction S_i = (d/dx_l gamma^{-1}_ij) J_jl at one
    point, as one row of ``limit_drift_fields``."""
    return _point_drifts(model, x, mu)[0]


def drift_S_tilde(model: SystemModel, x, mu: EmpiricalMeasure) -> np.ndarray:
    """Measure-derivative correction at one point, averaged over every sample
    of ``mu`` (a sample equal to x included), as one row of
    ``limit_drift_fields``."""
    return _point_drifts(model, x, mu)[1]


def limit_drift_fields(model: SystemModel, X: np.ndarray, samples=None):
    """All limit-equation fields at the points ``X`` of shape (B, m, d).

    ``samples`` (B, n, d) holds the empirical measure of each slice; by
    default each ensemble is its own measure (``samples = X``), and then
    friction and noise are evaluated once and shared between x and y.
    Returns ``(ginv_f, S, S_tilde, ginv_sigma)`` with shapes
    (B, m, d), (B, m, d), (B, m, d), (B, m, d, k), through stacked solves.
    Raises UnstableFriction when the friction at X, or at the samples where
    S~ needs it, is not positive definite.
    """
    if samples is None:
        samples = X
    B, N, d = X.shape
    g = model.friction_field(X, samples)                       # (B, N, d, d)
    _require_stable(g)
    ginv = np.linalg.inv(g)
    F = model.force_field(X, samples)
    sig = model.noise_field(X, samples)
    ginv_f = np.einsum("bnij,bnj->bni", ginv, F)
    ginv_sigma = np.einsum("bnij,bnjk->bnik", ginv, sig)

    if model.dx_is_zero:
        S = np.zeros((B, N, d))
    else:
        Q = np.einsum("bnik,bnjk->bnij", sig, sig)
        J = linalg.lyapunov_batch(g, Q)
        G = _sandwich(ginv, model.friction_dx_field(X, samples))
        S = np.einsum("bnijl,bnjl->bni", G, J)

    if model.dmu_is_zero:
        S_t = np.zeros((B, N, d))
    else:
        if samples is X:
            g_y, sig_y = g, sig
        else:
            g_y = model.friction_field(samples, samples)
            _require_stable(g_y, "friction at measure samples")
            sig_y = model.noise_field(samples, samples)
        n = samples.shape[1]
        A = np.broadcast_to(-g[:, :, None], (B, N, n, d, d))
        Bm = np.broadcast_to(
            np.swapaxes(g_y, -1, -2)[:, None, :], (B, N, n, d, d)
        )
        C = -np.einsum("bnik,bmjk->bnmij", sig, sig_y)
        J_t = linalg.sylvester_batch(A, Bm, C)                 # (B, N, n, d, d)
        D = model.friction_dmu_field(X, samples, samples)      # (B, N, n, d, d, d)
        G = _sandwich(ginv[:, :, None], D)
        S_t = np.einsum("bnmijl,bnmjl->bnmi", G, J_t).mean(axis=2)

    return ginv_f, S, S_t, ginv_sigma
