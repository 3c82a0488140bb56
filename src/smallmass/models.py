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
A derivative may hold d gamma_ii only, (B, N, d, d) and (B, N, n, d, d), as
those of the scalar-state, interaction and carrillo-force families do, the
latter a view broadcast from the (B, N, n, d) gradient of the interaction's
psi; the contraction then sums over l alone.  When sigma is one matrix at
every point, as a constant noise is, sigma sigma^T and every pair's sigma(x)
sigma(y)^T are one product, broadcast by the solves.  The products and the
-K x force are ``linalg.matvec`` / ``linalg.matmat``; ``drift_S`` and
``drift_S_tilde`` compute their own correction alone.

Batch evaluation conventions (used by the integrators): states are arrays of
shape ``(B, m, d)`` where ``B`` indexes independent ensembles (each with its
own measure) and ``m`` indexes evaluation points; measure samples are
``(B, n, d)``.  The interaction friction and its two derivatives, in the
diagonal form, are one closure set at every d, on the (B, m, n, d)
differences x - y; the differences and 1 + |x - y|^2 have one helper each,
which the carrillo-force force shares.  The friction profile a + b tanh(x)
and its slope are one helper, ``_tanh_friction``, which the scalar-state
family shares with them.  A constant coefficient hands out one read-only
contiguous copy per batch shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import (
    ParameterViolation,
    SizeLimitExceeded,
    UnknownFamily,
    UnstableFriction,
    ValidationError,
    array,
    floats,
    instance,
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
    * ``friction_dx(X, S) -> (B, m, d, d, d)``   entry [i, j, l] = d gamma_ij / d x_l
    * ``friction_dmu(X, S, Y) -> (B, m, n, d, d, d)``  entry [i, j, l] at y_n

    where ``X`` is ``(B, m, d)``, the measure samples ``S`` are ``(B, n, d)``
    and ``Y`` are the evaluation points of the Lions derivative.  State-only
    models simply ignore ``S`` in force and noise.  ``friction_dx`` and
    ``friction_dmu`` may be None, meaning identically zero; the zero flags
    let the integrators skip the corresponding correction exactly.

    A derivative closure may instead give the diagonal entries only, when
    d gamma_ij is zero off i = j, whatever gamma itself is:

    * ``friction_dx(X, S) -> (B, m, d, d)``   entry [i, l] = d gamma_ii / d x_l
    * ``friction_dmu(X, S, Y) -> (B, m, n, d, d)``  entry [i, l] at y_n, which
      may be a broadcast view

    The rank of the array is its form, and each closure may take either.
    ``limit_drift_fields`` contracts the diagonal form as it is;
    ``dense_derivative`` lays it out in the dense form for the point
    functions, the assumption probe and any caller that wants it.  The
    ``*_field`` calls raise ValidationError for any other shape.
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

    def dense_derivative(self, D: np.ndarray, points: int) -> np.ndarray:
        """A derivative output of this model with ``points`` leading point axes,
        2 for ``friction_dx`` and 3 for ``friction_dmu``, in the dense form: D
        itself when it is dense, else entry [..., i, j, l] zero off i = j and
        [..., i, i, l] = D[..., i, l]."""
        if D.ndim == points + 3:
            return D
        d = self.dim
        out = np.zeros(D.shape[:-2] + (d, d, d))
        out.reshape(D.shape[:-2] + (d * d, d))[..., :: d + 1, :] = D
        return out

    def _derivative(self, closure, lead: tuple, *args) -> np.ndarray:
        """``closure(*args)``, or zeros in the diagonal form for a None closure.
        ValidationError unless it is lead + (d, d) or lead + (d, d, d)."""
        forms = (lead + (self.dim,) * 2, lead + (self.dim,) * 3)
        D = np.zeros(forms[0]) if closure is None else np.asarray(closure(*args), dtype=float)
        if D.shape not in forms:
            raise ValidationError(
                f"a friction derivative must have shape {forms[0]} or {forms[1]}, got {D.shape}")
        return D

    # -- batch evaluation ---------------------------------------------------

    def force_field(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        return np.asarray(self._force(X, samples), dtype=float)

    def noise_field(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        return np.asarray(self._noise(X, samples), dtype=float)

    def friction_field(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        return np.asarray(self._friction(X, samples), dtype=float)

    def friction_dx_field(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        return self._derivative(self._friction_dx, X.shape[:2], X, samples)

    def friction_dmu_field(
        self, X: np.ndarray, samples: np.ndarray, Y: np.ndarray
    ) -> np.ndarray:
        return self._derivative(self._friction_dmu, X.shape[:2] + (Y.shape[1],), X, samples, Y)

    def checked_field(self, name: str, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """The ``name`` field, "force", "noise" or "friction", at X and the
        samples.  ValidationError unless it is (B, m) + (d,), (d, k) or (d, d):
        checked by the limit drift, the probe and the point functions, not in
        ``*_field``, which every step calls."""
        value = getattr(self, name + "_field")(X, samples)
        want = X.shape[:2] + {"force": (self.dim,), "noise": (self.dim, self.noise_dim),
                              "friction": (self.dim, self.dim)}[name]
        if value.shape != want:
            raise ValidationError(f"{name} must have shape {want}, got {value.shape}")
        return value

    # -- point evaluation ---------------------------------------------------

    def _point(self, x) -> np.ndarray:
        x = floats(x, "a state").reshape(-1)
        if x.shape != (self.dim,):
            raise ValidationError(f"state must have dimension {self.dim}")
        return x[None, None, :]

    def _samples(self, mu: EmpiricalMeasure) -> np.ndarray:
        if instance(mu, EmpiricalMeasure, "a measure").dim != self.dim:
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
        return self.checked_field("force", self._point(x), self._samples_or_dummy(mu, "force"))[0, 0]

    def noise(self, x, mu: Optional[EmpiricalMeasure] = None) -> np.ndarray:
        return self.checked_field("noise", self._point(x), self._samples_or_dummy(mu, "noise"))[0, 0]

    def friction(self, x, mu: EmpiricalMeasure) -> np.ndarray:
        return self.checked_field("friction", self._point(x), self._samples(mu))[0, 0]

    def friction_dx(self, x, mu: EmpiricalMeasure) -> np.ndarray:
        """d gamma_ij / d x_l at x, entry [i, j, l], whatever the model's form."""
        D = self.friction_dx_field(self._point(x), self._samples(mu))
        return self.dense_derivative(D, 2)[0, 0]

    def friction_dmu(self, x, mu: EmpiricalMeasure, y) -> np.ndarray:
        """(d_mu gamma_ij(x, mu)(y))_l, entry [i, j, l], whatever the model's form."""
        D = self.friction_dmu_field(self._point(x), self._samples(mu), self._point(y))
        return self.dense_derivative(D, 3)[0, 0, 0]


# --- built-in families -------------------------------------------------------


def _param(params, name, default=None, shape=None, count=False):
    """The one reader of family parameters: ``params[name]``, or ``default`` when
    absent (required when None), read by ``errors.array``.  A parameter is one
    number; a ``count`` is an integer from 1 to ``linalg.MAX_DIM``; one with a
    ``shape`` is a nested list of numbers of that shape, or one number, the scale
    of the identity."""
    value = params.get(name, default)
    if value is None:
        raise ParameterViolation(f"missing parameter {name!r}")
    try:
        arr = array(value, f"parameter {name!r}")
    except ValidationError as exc:   # a family's parameters fail as ParameterViolation
        raise ParameterViolation(str(exc)) from None
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
    + mean_{y~mu} psi(x - y) I, psi(z) = c / (1 + |z|^2) with c >= 0, the
    derivatives in the diagonal form: the measure derivative is a genuine
    Lions derivative of a linear functional of mu."""
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
    differences, updated in place, the diagonal entries laid out by
    ``linalg.diagonal_matrix``.  The derivatives take the diagonal form
    of ``SystemModel``: d gamma_ii / d x_l, and the gradient in y of psi,
    which every diagonal entry shares, as a view broadcast over i."""
    profile, slope = _tanh_friction(a, b)

    def friction(X, S):
        diff = _differences(X, S)                           # (B, m, n, d)
        q = _one_plus_squared(diff, out=diff[..., 0])
        psi = np.divide(c, q, out=q).mean(axis=2)           # (B, m)
        return linalg.diagonal_matrix(profile(X) + psi[..., None])

    def friction_dx(X, S):
        diff = _differences(X, S)
        q = _one_plus_squared(diff)
        q2 = np.multiply(q, q, out=q)
        grad_psi = (-2.0 * c) * np.divide(diff, q2[..., None], out=diff).mean(axis=2)
        # d gamma_ii / d x_i of the tanh profile, plus d psi / d x_l at every i
        return linalg.diagonal_matrix(slope(X)) + grad_psi[:, :, None, :]

    def friction_dmu(X, S, Y):
        diff = _differences(X, Y)                           # (B, m, n, d)
        q = _one_plus_squared(diff)
        diff *= 2.0 * c
        diff /= np.multiply(q, q, out=q)[..., None]         # the gradient in y
        return np.broadcast_to(diff[..., None, :], diff.shape[:-1] + (d, d))

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
    return SystemModel(1, 1, lambda X, S: -X, _constant(sigma), lambda X, S: profile(X)[..., None],
                       lambda X, S: slope(X)[..., None])


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
    """Instantiate a built-in model family from its spec: ValidationError
    unless its family is a string and its params a dict."""
    family = instance(instance(spec, ModelSpec, "spec").family, str, "spec.family")
    params = instance(spec.params, dict, "spec.params")
    if family not in _REGISTRY:
        raise UnknownFamily(f"unknown family {family!r}; available: {sorted(_REGISTRY)}")
    build, allowed = _REGISTRY[family]
    unknown = set(params) - allowed
    if unknown:
        raise ParameterViolation(
            f"unknown parameter(s) {sorted(unknown, key=str)} for family {family!r}"
        )
    model = build(dict(params))
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
    """sum_{j,l} (d gamma^{-1})_{ijl} J_{jl}, entry [b, n, i], from gamma^{-1} (B, N, d, d),
    the derivative D of gamma in either form and J (B, N, d, d) at the points;
    with ``samples`` D and J carry a sample axis after (B, N), and the result
    is the mean over it.  The one reader of the diagonal form, which it knows
    by D having J's rank.

    It runs factor by factor, -gamma^{-1} (sum_{q,l} D_{pql} (gamma^{-1} J)_{ql}),
    the mean taken before the last product.  In the diagonal form D_{pql} is
    zero off q = p, and the sum is over l alone, exact for any gamma: at
    d <= 4 the bits of the dense sum, whose zero terms add nothing; at d = 5
    to 7 the einsum pairs the terms otherwise, a few ulp apart."""
    g = ginv[:, :, None] if samples else ginv
    form = "...pl,...pl->...p" if D.ndim == J.ndim else "...pql,...ql->...p"
    T = np.einsum(form, D, linalg.matmat(g, J))
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
    D = instance(model, SystemModel, "model").friction_dx(x, mu)
    return _point_inverse_derivative(model, x, mu, D)


def gamma_inv_dmu(model: SystemModel, x, mu: EmpiricalMeasure, y) -> np.ndarray:
    """(d_mu gamma^{-1}_ij(x, mu)(y))_l via the sandwich identity."""
    D = instance(model, SystemModel, "model").friction_dmu(x, mu, y)
    return _point_inverse_derivative(model, x, mu, D)


def drift_S(model: SystemModel, x, mu: EmpiricalMeasure) -> np.ndarray:
    """State-derivative correction S_i = (d/dx_l gamma^{-1}_ij) J_jl at one
    point, as one row of ``limit_drift_fields``."""
    return _state_correction(model, *_at_point(model, x, mu))[0, 0]


def drift_S_tilde(model: SystemModel, x, mu: EmpiricalMeasure) -> np.ndarray:
    """Measure-derivative correction at one point, averaged over every sample
    of ``mu`` (a sample equal to x included), as one row of
    ``limit_drift_fields``."""
    return _measure_correction(model, *_at_point(model, x, mu))[0, 0]


def _at_point(model: SystemModel, x, mu: EmpiricalMeasure):
    """``_at_points`` at the one point x against the samples of ``mu``."""
    instance(model, SystemModel, "model")
    return _at_points(model, model._point(x), model._samples(mu))


def _at_points(model: SystemModel, X: np.ndarray, samples):
    """(X, samples, gamma, gamma^{-1}, sigma, basis) at the points X, what both
    corrections share; ``basis`` factors gamma(x) once for J and J~.  Raises
    ValidationError before any coefficient call unless the model is one and X
    (B, m, d) and the samples (B, n, d), X by default, are non-empty and match
    it, a float ndarray used as it is, anything else read by ``errors.floats``."""
    instance(model, SystemModel, "model")
    X = floats(X, "points")
    samples = X if samples is None else floats(samples, "samples")
    if not (X.ndim == samples.ndim == 3 and X.size and samples.size
            and X.shape[::2] == samples.shape[::2] == (X.shape[0], model.dim)):   # (B, d)
        raise ValidationError(f"need non-empty (B, m, d) points, (B, n, d) samples, d = {model.dim}")
    g = model.checked_field("friction", X, samples)            # (B, N, d, d)
    _require_stable(g)
    basis = None if model.dx_is_zero and model.dmu_is_zero else linalg.Eigenbasis(g)
    return X, samples, g, linalg.inv_batch(g), model.checked_field("noise", X, samples), basis


def _repeats(stack: np.ndarray, first: np.ndarray) -> bool:
    """Whether every matrix of ``stack`` has the bits of ``first``."""
    return bool((stack.view(np.uint64) == first.view(np.uint64)).all())


def _noise_products(sig, sig_y=None):
    """sigma sigma^T at the points (B, N, d, d) or, given sig_y at the samples,
    sigma(x) sigma(y)^T for every pair (B, N, n, d, d), by ``linalg.matmat``.
    When every matrix of sig and sig_y has the bits of the first, as a
    constant noise's do, it is that one matrix's product (d, d), which the
    solves broadcast: the bits of every pair's product, for a fraction of
    the time and none of the memory."""
    first = sig[0, 0]
    if _repeats(sig, first) and (sig_y is None or sig_y is sig or _repeats(sig_y, first)):
        return linalg.matmat(first, first.T)
    if sig_y is None:
        return linalg.matmat(sig, np.swapaxes(sig, -1, -2))
    return linalg.matmat(sig[:, :, None], np.swapaxes(sig_y, -1, -2)[:, None])


def _state_correction(model, X, samples, g, ginv, sig, basis):
    """S at the points X, from the shared part ``_at_points``."""
    if model.dx_is_zero:
        return np.zeros(X.shape)
    J = linalg.lyapunov_batch(g, _noise_products(sig), basis)
    return _contract(ginv, model.friction_dx_field(X, samples), J)


def _measure_correction(model, X, samples, g, ginv, sig, basis):
    """S~ at the points X, from the shared part ``_at_points``."""
    if model.dmu_is_zero:
        return np.zeros(X.shape)
    if samples is X:
        g_y, sig_y, basis_y = g, sig, basis
    else:
        g_y = model.checked_field("friction", samples, samples)
        _require_stable(g_y, "friction at measure samples")
        sig_y = model.checked_field("noise", samples, samples)
        basis_y = linalg.Eigenbasis(g_y)
    Q = _noise_products(sig, sig_y)
    J_t = linalg.sylvester_batch(g[:, :, None], g_y[:, None], Q, basis, basis_y)   # (B, N, n, d, d)
    return _contract(ginv, model.friction_dmu_field(X, samples, samples), J_t, samples=True)


def limit_drift_fields(model: SystemModel, X: np.ndarray, samples=None):
    """All limit-equation fields at the points ``X`` of shape (B, m, d).

    ``samples`` (B, n, d) holds the empirical measure of each slice; by
    default each ensemble is its own measure (``samples = X``), and then
    friction and noise are evaluated once and shared between x and y.
    Returns ``(ginv_f, S, S_tilde, ginv_sigma)`` with shapes
    (B, m, d), (B, m, d), (B, m, d), (B, m, d, k), through stacked solves.
    Raises ValidationError for empty, mismatched or non-numeric X and samples
    or a misshapen force, noise or friction, UnstableFriction when the
    friction at X, or at the samples S~ needs, is not positive definite.
    """
    shared = _at_points(model, X, samples)
    X, samples, _, ginv, sig, _ = shared
    return (linalg.matvec(ginv, model.checked_field("force", X, samples)),
            _state_correction(model, *shared),
            _measure_correction(model, *shared), linalg.matmat(ginv, sig))
