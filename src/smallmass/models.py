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

Both are the one equation G1 J + J G2^T = Q of :mod:`linalg`, with G1 = G2 =
gamma(x) for ``J`` and G1 = gamma(x), G2 = gamma(y), x broadcast against y, for ``J~``.

Derivatives of the inverse are never differenced numerically.  They follow
from d gamma^{-1} = -gamma^{-1} (d gamma) gamma^{-1}, for the state and the
measure derivative alike.  The point functions ``gamma_inv_dx`` /
``gamma_inv_dmu`` form this sandwich; ``limit_drift_fields`` never does,
and contracts factor by factor instead, at every d:
S_i = -gamma^{-1}_ip sum_{q,l} (d_x gamma)_pql (gamma^{-1} J)_ql, and S~ the
same with d_mu gamma, J~ and the mean over the samples taken before the last
product, so no (B, N, n, d, d, d) tensor but the derivative itself is made.

Batch evaluation conventions (used by the integrators): states are arrays of
shape ``(B, m, d)`` where ``B`` indexes independent ensembles (each with its
own measure) and ``m`` indexes evaluation points; measure samples are
``(B, n, d)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import (
    NonFinite,
    ParameterViolation,
    SizeLimitExceeded,
    UnknownFamily,
    UnstableFriction,
    ValidationError,
)
from .measures import EmpiricalMeasure

MODE_STATE_ONLY = "state-only"
MODE_EXTENSION = "extension"


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


def _reals(value, name):
    """``value`` with every number in it checked and made a float."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_reals(v, name) for v in value]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):   # np.bool_ is no Real
        raise ParameterViolation(f"parameter {name!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:   # an integer beyond the float range
        raise ParameterViolation(f"parameter {name!r} is beyond the float range") from None
    if not math.isfinite(number):
        raise NonFinite(f"parameter {name!r} is not finite")
    return number


def _param(params, name, default=None, shape=None, count=False):
    """The one reader of family parameters: ``params[name]``, or ``default`` when
    absent (required when None).  A parameter is a finite real number, not a bool
    or a string; a ``count`` is an integer from 1 to ``linalg.MAX_DIM``; one with a
    ``shape`` is a nested list of numbers of that shape, or one number, the scale
    of the identity."""
    value = params.get(name, default)
    if value is None:
        raise ParameterViolation(f"missing parameter {name!r}")
    try:
        arr = np.asarray(_reals(value, name))
    except ValueError:   # ragged nesting
        raise ParameterViolation(f"parameter {name!r} is a ragged list") from None
    if shape is not None:
        arr = float(arr) * np.eye(*shape) if arr.ndim == 0 else arr
        if arr.shape != shape:
            raise ParameterViolation(f"parameter {name!r} must have shape {shape}")
        return arr
    if arr.ndim != 0:
        raise ParameterViolation(f"parameter {name!r} must be a number")
    if count and not (arr >= 1.0 and arr == int(arr)):
        raise ParameterViolation(f"parameter {name!r} must be an integer >= 1, got {value!r}")
    if count and arr > linalg.MAX_DIM:
        raise SizeLimitExceeded(f"parameter {name!r} is {value!r}, above {linalg.MAX_DIM}")
    return int(arr) if count else float(arr)


def _linear_force(K):
    """F(x) = -K x."""

    def force(X, S):
        return -np.einsum("ij,bmj->bmi", K, X)

    return force


def _constant(matrix):
    """A coefficient equal to ``matrix`` at every point and for every measure."""

    def field(X, S):
        B, m, _ = X.shape
        return np.broadcast_to(matrix, (B, m) + matrix.shape)

    return field


def _tanh_profile(params, family):
    """``a`` and ``b`` of the friction profile a + b tanh(x), under a > |b|."""
    a = _param(params, "a")
    b = _param(params, "b")
    if not a > abs(b):
        raise ParameterViolation(f"{family} requires a > |b|")
    return a, b


def _interaction_friction(params, family, d):
    """(friction, friction_dx, friction_dmu) of gamma(x, mu) = a I + b diag(tanh x_i)
    + mean_{y~mu} psi(x - y) I, psi(z) = c / (1 + |z|^2) with c >= 0: the measure
    derivative is a genuine Lions derivative of a linear functional of mu."""
    a, b = _tanh_profile(params, family)
    c = _param(params, "c")
    if c < 0.0:
        raise ParameterViolation(f"{family} requires c >= 0")
    return _pairwise_closures_d1(a, b, c) if d == 1 else _pairwise_closures(a, b, c, d)


def _pairwise_closures(a, b, c, d):
    """The interaction friction closures at any d, on (B, m, n, d) differences."""
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


def _pairwise_closures_d1(a, b, c):
    """``_pairwise_closures`` at d = 1 with the same bits, on (B, m, n)
    differences updated in place: no ufunc loops over a trailing axis of
    length 1, and two pairwise arrays at most."""

    def diffs(X, S):
        return X[:, :, None, 0] - S[:, None, :, 0]          # (B, m, n)

    def squared_q(diff):
        q2 = diff * diff
        q2 += 1.0
        return np.multiply(q2, q2, out=q2)                  # (1 + |x - y|^2)^2

    def friction(X, S):
        q = diffs(X, S)
        np.multiply(q, q, out=q)
        q += 1.0
        psi = np.divide(c, q, out=q).mean(axis=2)
        return (a + b * np.tanh(X) + psi[..., None])[..., None]

    def friction_dx(X, S):
        diff = diffs(X, S)
        q2 = squared_q(diff)
        grad_psi = (-2.0 * c) * np.divide(diff, q2, out=diff).mean(axis=2)
        sech2 = 1.0 / np.cosh(X) ** 2
        return (b * sech2 + grad_psi[..., None])[..., None, None]

    def friction_dmu(X, S, Y):
        diff = diffs(X, Y)
        q2 = squared_q(diff)
        diff *= 2.0 * c
        diff /= q2
        return diff[..., None, None, None]

    return friction, friction_dx, friction_dmu


def _build_constant(params) -> SystemModel:
    d = _param(params, "d", default=1, count=True)
    k = _param(params, "k", default=d, count=True)
    gamma0 = _param(params, "gamma0", shape=(d, d))
    K = _param(params, "K", default=1.0, shape=(d, d))
    sigma = _param(params, "sigma", default=1.0, shape=(d, k))
    if linalg.min_sym_eig(gamma0) <= linalg.STABILITY_EPS:
        raise ParameterViolation("constant friction must have a positive definite symmetric part")
    return SystemModel(d, k, _linear_force(K), _constant(sigma), _constant(gamma0))


def _build_scalar_state(params) -> SystemModel:
    a, b = _tanh_profile(params, "scalar-state")
    sigma = np.full((1, 1), _param(params, "sigma", default=1.0))

    def friction(X, S):
        return (a + b * np.tanh(X))[..., None]

    def friction_dx(X, S):
        sech2 = 1.0 / np.cosh(X) ** 2
        return (b * sech2)[..., None, None]

    return SystemModel(1, 1, lambda X, S: -X, _constant(sigma), friction, friction_dx)


def _build_interaction(params) -> SystemModel:
    d = _param(params, "d", default=1, count=True)
    k = _param(params, "k", default=d, count=True)
    K = _param(params, "K", default=1.0, shape=(d, d))
    sigma = _param(params, "sigma", default=1.0, shape=(d, k))
    return SystemModel(
        d, k, _linear_force(K), _constant(sigma), *_interaction_friction(params, "interaction", d)
    )


def _build_carrillo_force(params) -> SystemModel:
    d = _param(params, "d", default=1, count=True)
    k = _param(params, "k", default=d, count=True)
    kappa_v = _param(params, "kappa_v", default=1.0)
    c_w = _param(params, "c_w", default=1.0)
    sigma = _param(params, "sigma", default=1.0, shape=(d, k))

    def force(X, S):
        # -grad V(x) - mean_y grad W(x - y), V quadratic, W(z) = c_w sqrt(1+|z|^2)
        diff = X[:, :, None, :] - S[:, None, :, :]
        root = np.sqrt(1.0 + np.sum(diff * diff, axis=-1))
        grad_w = c_w * (diff / root[..., None]).mean(axis=2)
        return -kappa_v * X - grad_w

    return SystemModel(
        d, k, force, _constant(sigma), *_interaction_friction(params, "carrillo-force", d),
        mode=MODE_EXTENSION,
    )


# family -> (builder, the parameters it takes)
_REGISTRY = {
    "constant": (_build_constant, {"d", "k", "gamma0", "K", "sigma"}),
    "scalar-state": (_build_scalar_state, {"a", "b", "sigma"}),
    "interaction": (_build_interaction, {"a", "b", "c", "d", "k", "K", "sigma"}),
    "carrillo-force": (
        _build_carrillo_force, {"a", "b", "c", "d", "k", "kappa_v", "c_w", "sigma"}
    ),
}


def model_library(spec: ModelSpec) -> SystemModel:
    """Instantiate a built-in model family from its spec."""
    if spec.family not in _REGISTRY:
        raise UnknownFamily(
            f"unknown family {spec.family!r}; available: {sorted(_REGISTRY)}"
        )
    build, allowed = _REGISTRY[spec.family]
    unknown = set(spec.params) - allowed
    if unknown:
        raise ParameterViolation(
            f"unknown parameter(s) {sorted(unknown)} for family {spec.family!r}"
        )
    model = build(dict(spec.params))
    model.spec = spec
    return model


# --- inverse-friction derivatives and correction drifts ----------------------


def _require_stable(gammas: np.ndarray, what: str = "friction"):
    worst = float(linalg.min_sym_eig_batch(gammas).min())
    if not worst > linalg.STABILITY_EPS:   # NaN friction fails here too
        raise UnstableFriction(
            f"symmetric part of {what} has eigenvalue {worst:.3e} <= {linalg.STABILITY_EPS:.0e}"
        )


def _sandwich(ginv: np.ndarray, D: np.ndarray) -> np.ndarray:
    """-gamma^{-1} (dgamma) gamma^{-1} contracted over the matrix indices of
    every derivative direction l: entry [..., i, j, l]."""
    return -np.einsum("...ip,...pql,...qj->...ijl", ginv, D, ginv)


def _contract(ginv: np.ndarray, D: np.ndarray, J: np.ndarray, samples: bool = False):
    """sum_{j,l} (d gamma^{-1})_{ijl} J_{jl}, entry [b, n, i], from gamma^{-1} (B, N, d, d)
    and the derivative D of gamma (B, N, d, d, d) and J (B, N, d, d) at the points;
    with ``samples`` D and J carry a sample axis after (B, N), and the result is
    the mean over it.

    It runs factor by factor, -gamma^{-1} (sum_{q,l} D_{pql} (gamma^{-1} J)_{ql}),
    the mean taken before the last product."""
    g = ginv[:, :, None] if samples else ginv
    T = np.einsum("...pql,...ql->...p", D, g @ J)
    if samples:
        T = T.mean(axis=2)
    return -np.einsum("bnip,bnp->bni", ginv, T)


def _point_inverse_derivative(model: SystemModel, x, mu, D) -> np.ndarray:
    g = model.friction(x, mu)
    _require_stable(g)
    return _sandwich(linalg.inv_batch(g), D)


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
    ginv = linalg.inv_batch(g)
    F = model.force_field(X, samples)
    sig = model.noise_field(X, samples)
    ginv_f = np.einsum("bnij,bnj->bni", ginv, F)
    ginv_sigma = np.einsum("bnij,bnjk->bnik", ginv, sig)

    # gamma(x) factored once, for J and J~ alike
    basis = None if model.dx_is_zero and model.dmu_is_zero else linalg.Eigenbasis(g)

    if model.dx_is_zero:
        S = np.zeros((B, N, d))
    else:
        Q = np.einsum("bnik,bnjk->bnij", sig, sig)
        J = linalg.lyapunov_batch(g, Q, basis)
        S = _contract(ginv, model.friction_dx_field(X, samples), J)

    if model.dmu_is_zero:
        S_t = np.zeros((B, N, d))
    else:
        if samples is X:
            g_y, sig_y, basis_y = g, sig, basis
        else:
            g_y = model.friction_field(samples, samples)
            _require_stable(g_y, "friction at measure samples")
            sig_y = model.noise_field(samples, samples)
            basis_y = linalg.Eigenbasis(g_y)
        Q = np.einsum("bnik,bmjk->bnmij", sig, sig_y)
        J_t = linalg.sylvester_batch(g[:, :, None], g_y[:, None], Q, basis, basis_y)   # (B, N, n, d, d)
        D = model.friction_dmu_field(X, samples, samples)      # (B, N, n, d, d, d)
        S_t = _contract(ginv, D, J_t, samples=True)

    return ginv_f, S, S_t, ginv_sigma
