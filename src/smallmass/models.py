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
Its products and the -K x force are ``linalg.matvec`` / ``linalg.matmat``;
``drift_S`` and ``drift_S_tilde`` compute their own correction alone.

Batch evaluation conventions (used by the integrators): states are arrays of
shape ``(B, m, d)`` where ``B`` indexes independent ensembles (each with its
own measure) and ``m`` indexes evaluation points; measure samples are
``(B, n, d)``.  The interaction friction and its two derivatives are one
closure set at every d, on the (B, m, n, d) differences x - y; the
differences and 1 + |x - y|^2 have one helper each, which the carrillo-force
force shares.  The friction profile a + b tanh(x) and its slope are one
helper, ``_tanh_friction``, which the scalar-state family shares with them.  A
constant coefficient hands out one read-only view per batch shape.
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
    integer,
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
        self.dim = integer(dim, "dim", 1)
        self.noise_dim = integer(noise_dim, "noise_dim", 1)
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
    """F(x) = -K x, with K a constant coefficient, for its contiguous copy."""
    K = _constant(K)

    def force(X, S):
        return -linalg.matvec(K(X, S), X)

    return force


def _constant(matrix):
    """A coefficient equal to ``matrix`` at every point and for every measure.

    A read-only contiguous (B, m) + matrix.shape copy is built once per (B, m)
    and handed out again while the shape repeats, as at every step of a batch:
    one cache entry per closure, replaced when the shape changes (a batch, then
    the point API's (1, 1), then a batch again).  Products with it take numpy's
    contiguous loops, about twice as fast as on a broadcast view at d = 1."""
    cache = [np.broadcast_to(matrix, (0, 0) + matrix.shape)]

    def field(X, S):
        B, m, _ = X.shape
        view = cache[0]
        if view.shape[0] != B or view.shape[1] != m:
            view = cache[0] = np.broadcast_to(matrix, (B, m) + matrix.shape).copy()
            view.flags.writeable = False
        return view

    return field


def _tanh_profile(params, family):
    """``a`` and ``b`` of the friction profile a + b tanh(x), under a > |b|."""
    a = _param(params, "a")
    b = _param(params, "b")
    if not a > abs(b):
        raise ParameterViolation(f"{family} requires a > |b|")
    return a, b


def _tanh_friction(a, b):
    """The profile a + b tanh(x) and its slope b sech^2(x), entrywise on X: the
    one source of both for the scalar-state and the interaction families."""
    return (lambda X: a + b * np.tanh(X)), (lambda X: b * (1.0 / np.cosh(X) ** 2))


def _interaction_friction(params, family, d):
    """(friction, friction_dx, friction_dmu) of gamma(x, mu) = a I + b diag(tanh x_i)
    + mean_{y~mu} psi(x - y) I, psi(z) = c / (1 + |z|^2) with c >= 0: the measure
    derivative is a genuine Lions derivative of a linear functional of mu."""
    a, b = _tanh_profile(params, family)
    c = _param(params, "c")
    if c < 0.0:
        raise ParameterViolation(f"{family} requires c >= 0")
    return _pairwise_closures(a, b, c, d)


def _one_plus_squared(diff, out=None):
    """1 + |z|^2 over the last axis of ``diff``, the components added left to
    right: np.sum's bits while that axis is shorter than 8, where np.sum is a
    left fold too.  ``out`` may be ``diff[..., 0]``, which is read first."""
    q = np.multiply(diff[..., 0], diff[..., 0], out=out)
    for l in range(1, diff.shape[-1]):
        q += diff[..., l] * diff[..., l]
    q += 1.0
    return q


def _differences(X, Y):
    """The (B, m, n, d) differences x - y of the points X (B, m, d) and the
    samples Y (B, n, d): x repeated along n, then y subtracted in place.  The
    broadcast subtract X[:, :, None] - Y[:, None] runs an inner loop only d
    long; this one runs n * d long, and subtraction is the same IEEE operation
    either way, so the bits are those of the broadcast subtract."""
    diff = np.repeat(X[:, :, None, :], Y.shape[1], axis=2)
    diff -= Y[:, None, :, :]
    return diff


def _pairwise_closures(a, b, c, d):
    """The interaction friction closures at every d, on the (B, m, n, d)
    differences, updated in place, and the diagonal entries written through
    strided views of the zero output."""
    profile, slope = _tanh_friction(a, b)

    def friction(X, S):
        B, m, _ = X.shape
        diff = _differences(X, S)                           # (B, m, n, d)
        q = _one_plus_squared(diff, out=diff[..., 0])
        psi = np.divide(c, q, out=q).mean(axis=2)           # (B, m)
        out = np.zeros((B, m, d, d))
        out.reshape(B, m, d * d)[..., :: d + 1] = profile(X) + psi[..., None]
        return out

    def friction_dx(X, S):
        B, m, _ = X.shape
        diff = _differences(X, S)
        q = _one_plus_squared(diff)
        q2 = np.multiply(q, q, out=q)
        grad_psi = (-2.0 * c) * np.divide(diff, q2[..., None], out=diff).mean(axis=2)
        out = np.zeros((B, m, d, d, d))
        # diagonal tanh profile: d gamma_ii / d x_i
        out.reshape(B, m, d ** 3)[..., :: d * d + d + 1] = slope(X)
        # shared psi term: d gamma_ii / d x_l for every i, l
        out.reshape(B, m, d * d, d)[:, :, :: d + 1] += grad_psi[:, :, None, :]
        return out

    def friction_dmu(X, S, Y):
        B, m, _ = X.shape
        n = Y.shape[1]
        diff = _differences(X, Y)                           # (B, m, n, d)
        q = _one_plus_squared(diff)
        diff *= 2.0 * c
        diff /= np.multiply(q, q, out=q)[..., None]         # the gradient in y
        del q   # freed before the output is made
        out = np.zeros((B, m, n, d, d, d))
        out.reshape(B, m, n, d * d, d)[..., :: d + 1, :] = diff[..., None, :]
        return out

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
    profile, slope = _tanh_friction(*_tanh_profile(params, "scalar-state"))
    sigma = np.full((1, 1), _param(params, "sigma", default=1.0))
    return SystemModel(1, 1, lambda X, S: -X, _constant(sigma),
                       lambda X, S: profile(X)[..., None], lambda X, S: slope(X)[..., None, None])


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
        diff = _differences(X, S)
        root = np.sqrt(_one_plus_squared(diff))
        grad_w = c_w * np.divide(diff, root[..., None], out=diff).mean(axis=2)
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
    if not np.isfinite(gammas).all():   # before the eigen-scan, at every d and shape
        raise UnstableFriction(f"{what} has a NaN or infinite entry")
    worst = float(linalg.min_sym_eig_batch(gammas).min())
    if not worst > linalg.STABILITY_EPS:
        raise UnstableFriction(
            f"symmetric part of {what} has eigenvalue {worst:.3e} <= {linalg.STABILITY_EPS:.0e}"
        )


def _contract(ginv: np.ndarray, D: np.ndarray, J: np.ndarray, samples: bool = False):
    """sum_{j,l} (d gamma^{-1})_{ijl} J_{jl}, entry [b, n, i], from gamma^{-1} (B, N, d, d)
    and the derivative D of gamma (B, N, d, d, d) and J (B, N, d, d) at the points;
    with ``samples`` D and J carry a sample axis after (B, N), and the result is
    the mean over it.

    It runs factor by factor, -gamma^{-1} (sum_{q,l} D_{pql} (gamma^{-1} J)_{ql}),
    the mean taken before the last product."""
    g = ginv[:, :, None] if samples else ginv
    T = np.einsum("...pql,...ql->...p", D, linalg.matmat(g, J))
    if samples:
        T = T.mean(axis=2)
    return -linalg.matvec(ginv, T)


def _point_inverse_derivative(model: SystemModel, x, mu, D) -> np.ndarray:
    """The sandwich -gamma^{-1} (d gamma) gamma^{-1} at one point, contracted over
    the matrix indices of every derivative direction l of D: entry [i, j, l]."""
    g = model.friction(x, mu)
    _require_stable(g)
    ginv = linalg.inv_batch(g)
    return -np.einsum("...ip,...pql,...qj->...ijl", ginv, D, ginv)


def gamma_inv_dx(model: SystemModel, x, mu: EmpiricalMeasure) -> np.ndarray:
    """(d/dx_l gamma^{-1})_{ij} via the sandwich identity, shape (d, d, d)."""
    return _point_inverse_derivative(model, x, mu, model.friction_dx(x, mu))


def gamma_inv_dmu(model: SystemModel, x, mu: EmpiricalMeasure, y) -> np.ndarray:
    """(d_mu gamma^{-1}_ij(x, mu)(y))_l via the sandwich identity."""
    return _point_inverse_derivative(model, x, mu, model.friction_dmu(x, mu, y))


def drift_S(model: SystemModel, x, mu: EmpiricalMeasure) -> np.ndarray:
    """State-derivative correction S_i = (d/dx_l gamma^{-1}_ij) J_jl at one
    point, as one row of ``limit_drift_fields``."""
    return _state_correction(model, *_at_points(model, model._point(x), model._samples(mu)))[0, 0]


def drift_S_tilde(model: SystemModel, x, mu: EmpiricalMeasure) -> np.ndarray:
    """Measure-derivative correction at one point, averaged over every sample
    of ``mu`` (a sample equal to x included), as one row of
    ``limit_drift_fields``."""
    return _measure_correction(model, *_at_points(model, model._point(x), model._samples(mu)))[0, 0]


def _at_points(model: SystemModel, X: np.ndarray, samples):
    """(X, samples, gamma, gamma^{-1}, sigma, basis) at the points X, what both
    corrections share; ``basis`` factors gamma(x) once for J and J~.  Raises
    ValidationError before any coefficient call unless X (B, m, d) and the
    samples (B, n, d), X by default, are non-empty and match the model; a
    float ndarray is used as it is, anything else converted as a float array."""
    try:
        X = np.asarray(X, dtype=float)
        samples = X if samples is None else np.asarray(samples, dtype=float)
    except (TypeError, ValueError):   # a ragged list, a string, None
        raise ValidationError("points and samples must be arrays of numbers") from None
    if not (X.ndim == samples.ndim == 3 and X.size and samples.size
            and X.shape[::2] == samples.shape[::2] == (X.shape[0], model.dim)):   # (B, d)
        raise ValidationError(f"need non-empty (B, m, d) points, (B, n, d) samples, d = {model.dim}")
    g = model.friction_field(X, samples)                       # (B, N, d, d)
    _require_stable(g)
    basis = None if model.dx_is_zero and model.dmu_is_zero else linalg.Eigenbasis(g)
    return X, samples, g, linalg.inv_batch(g), model.noise_field(X, samples), basis


def _state_correction(model, X, samples, g, ginv, sig, basis):
    """S at the points X, from the shared part ``_at_points``."""
    if model.dx_is_zero:
        return np.zeros(X.shape)
    J = linalg.lyapunov_batch(g, linalg.matmat(sig, np.swapaxes(sig, -1, -2)), basis)
    return _contract(ginv, model.friction_dx_field(X, samples), J)


def _measure_correction(model, X, samples, g, ginv, sig, basis):
    """S~ at the points X, from the shared part ``_at_points``."""
    if model.dmu_is_zero:
        return np.zeros(X.shape)
    if samples is X:
        g_y, sig_y, basis_y = g, sig, basis
    else:
        g_y = model.friction_field(samples, samples)
        _require_stable(g_y, "friction at measure samples")
        sig_y = model.noise_field(samples, samples)
        basis_y = linalg.Eigenbasis(g_y)
    Q = linalg.matmat(sig[:, :, None], np.swapaxes(sig_y, -1, -2)[:, None])
    J_t = linalg.sylvester_batch(g[:, :, None], g_y[:, None], Q, basis, basis_y)   # (B, N, n, d, d)
    return _contract(ginv, model.friction_dmu_field(X, samples, samples), J_t, samples=True)


def limit_drift_fields(model: SystemModel, X: np.ndarray, samples=None):
    """All limit-equation fields at the points ``X`` of shape (B, m, d).

    ``samples`` (B, n, d) holds the empirical measure of each slice; by
    default each ensemble is its own measure (``samples = X``), and then
    friction and noise are evaluated once and shared between x and y.
    Returns ``(ginv_f, S, S_tilde, ginv_sigma)`` with shapes
    (B, m, d), (B, m, d), (B, m, d), (B, m, d, k), through stacked solves.
    Raises ValidationError for empty, mismatched or non-numeric X and samples, UnstableFriction
    when the friction at X, or at the samples S~ needs, is not positive definite.
    """
    shared = _at_points(model, X, samples)
    X, samples, _, ginv, sig, _ = shared
    return (linalg.matvec(ginv, model.force_field(X, samples)), _state_correction(model, *shared),
            _measure_correction(model, *shared), linalg.matmat(ginv, sig))
