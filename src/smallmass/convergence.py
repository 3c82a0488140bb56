"""Strong-convergence measurement between the mass-eps system and its limit.

``run_convergence`` estimates E sup_t max_i |x^eps_i - x_i|^2 by synchronous
coupling for a descending grid of eps values, ``fit_rate`` fits the log-log
slope, and ``constant_reduction_check`` cross-validates the limit stepper
against an independently coded overdamped Euler scheme in the constant
friction case (where both corrections vanish identically and the two must
agree to the last bit).

The sweep is a run of the one runner of batched runs
(``dynamics._run_replicas``) over replicas 0 .. R-1, in replica order in the
calling thread (the step loop holds the GIL, so a thread pool was slower):
each replica batch runs every eps on one draw of the noise, on the union of
their fast grids, and one limit path.  Each replica depends on nothing but
its own streams, so a seed's reports are byte-identical at any batch size or
noise block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .driver import NoiseDriver
from .dynamics import (
    DEFAULT_KAPPA,
    SCHEME_EXPLICIT,
    SCHEME_EXPONENTIAL,
    ProbeConfig,
    _check_explicit_damping,
    _ratio_int,
    _run_replicas,
    _state_array,
    run_limit_path,
    validate_assumptions,
)
from .errors import (
    DegenerateFit,
    InsufficientReplicas,
    ValidationError,
    floats,
    instance,
    integer,
    real,
)
from .linalg import inv_batch
from .models import ModelSpec, SystemModel


@dataclass(frozen=True)
class DeltaRule:
    """Fast-step rule: explicit (delta = eps/kappa) or exponential (fixed delta)."""

    scheme: str = SCHEME_EXPLICIT
    kappa: float = DEFAULT_KAPPA
    delta: Optional[float] = None

    def __post_init__(self):
        if self.scheme not in (SCHEME_EXPLICIT, SCHEME_EXPONENTIAL):
            raise ValidationError(f"unknown delta_rule scheme {self.scheme!r}")
        real(self.kappa, "kappa", positive=True)
        if self.delta is not None or self.scheme == SCHEME_EXPONENTIAL:
            try:
                real(self.delta, "delta", positive=True)
            except ValidationError:
                raise ValidationError(f"{self.scheme} delta_rule needs a positive, finite delta, "
                                      f"got {self.delta!r}") from None

    def resolve(self, eps: float, Delta: float) -> float:
        """Fast step for this eps, snapped so that Delta is an exact multiple."""
        real(eps, "eps", positive=True)
        raw = eps / self.kappa if self.scheme == SCHEME_EXPLICIT else self.delta
        m = _ratio_int(Delta, raw, f"Delta/delta at eps={eps}")
        return Delta / m


def _preflight(model: SystemModel, delta_rule: DeltaRule, seed: int):
    """The checks a run makes before any step: the assumption probe at the run's
    ``seed``, on the states ``smallmass validate`` reports on, then, under the
    explicit rule, StepTooLarge on a probed friction that one step would not
    damp (``_check_explicit_damping``)."""
    probed = validate_assumptions(model, ProbeConfig(seed=seed)).friction
    if delta_rule.scheme == SCHEME_EXPLICIT:
        _check_explicit_damping(probed, delta_rule.kappa)


@dataclass
class ConvergenceReport:
    """Per-eps strong-error estimates plus the fitted log-log rate."""

    model_spec: Optional[ModelSpec]
    epsilons: list
    errors: list
    stderrs: list
    replicas: int
    n_particles: int
    ratios: list = field(default_factory=list)   # errors / sqrt(eps)
    slope: Optional[float] = None
    intercept: Optional[float] = None
    r2: Optional[float] = None


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float


def _check_epsilons(eps_list):
    try:
        eps = [real(e, "each epsilon", positive=True) for e in eps_list]
    except TypeError:   # a number, None: nothing to iterate
        raise ValidationError(f"epsilon values must be a list, got {eps_list!r}") from None
    if not eps:
        raise ValidationError("need at least one epsilon")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValidationError("epsilon_list must be strictly decreasing")
    return eps


def run_convergence(
    model: SystemModel,
    eps_list,
    T: float,
    n_particles: int,
    replicas: int,
    seed: int,
    delta_rule: DeltaRule,
    Delta: float,
    x0=0.0,
    v0=0.0,
    threads: int = 1,
    validate: bool = True,
) -> ConvergenceReport:
    """Estimate the coupled strong error over a descending eps grid.

    Replica r of every eps value sees the same Brownian path and the same
    limit path, under either rule: the noise is drawn once, on the union of
    the fast grids (one grid under the exponential rule), and each eps steps
    over its sums on its own grid, so the per-eps estimates are correlated
    through their common noise.  ``validate`` runs ``_preflight`` before any
    sweep.  The runner makes the (len(eps_list), replicas) result before any
    batch, so a replica count it cannot hold fails at once with
    SizeLimitExceeded.
    ``threads`` (>= 1) has no effect; it stays for the callers that pass it.
    """
    eps_values = _check_epsilons(eps_list)
    if integer(replicas, "replicas") < 2:
        raise InsufficientReplicas("need at least 2 replicas")
    integer(threads, "threads", 1)
    if validate:
        _preflight(model, delta_rule, seed)
    deltas = [delta_rule.resolve(eps, Delta) for eps in eps_values]
    sup = _run_replicas(
        model, eps_values, deltas, T, Delta, n_particles, range(replicas), seed,
        x0, v0, delta_rule.scheme, delta_rule.kappa,
    )
    errors = [float(np.mean(row)) for row in sup]
    stderrs = [float(np.std(row, ddof=1) / np.sqrt(replicas)) for row in sup]
    ratios = [err / np.sqrt(eps) for err, eps in zip(errors, eps_values)]

    return ConvergenceReport(
        model_spec=model.spec,
        epsilons=eps_values,
        errors=errors,
        stderrs=stderrs,
        replicas=replicas,
        n_particles=n_particles,
        ratios=ratios,
    )


def fit_rate(report: ConvergenceReport) -> RateFit:
    """Ordinary least squares of log error against log eps.

    The slope is the empirical rate exponent of the squared sup error;
    exp(intercept) estimates the rate constant.
    """
    eps = floats(instance(report, ConvergenceReport, "report").epsilons, "report.epsilons")
    err = floats(report.errors, "report.errors")
    if eps.shape != err.shape:
        raise ValidationError(f"report has {eps.shape} epsilons against {err.shape} errors")
    if len(np.unique(eps)) < 3:
        raise DegenerateFit("need at least 3 distinct epsilon values")
    if not all(((v > 0.0) & (v < np.inf)).all() for v in (eps, err)):   # NaN fails too
        raise DegenerateFit("every error estimate and epsilon must be finite and positive to fit a rate")
    x = np.log(eps)
    y = np.log(err)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / max(ss_tot, 1e-300)
    fit = RateFit(slope=slope, intercept=intercept, r2=r2)
    report.slope, report.intercept, report.r2 = fit.slope, fit.intercept, fit.r2
    return fit


def _naive_overdamped_path(
    model: SystemModel,
    T: float,
    Delta: float,
    n_particles: int,
    replica_id: int,
    seed: int,
    x0,
) -> np.ndarray:
    """Plain overdamped Euler path for a constant-coefficient model.

    Written against the raw coefficients on purpose: no correction-drift
    machinery, the friction/force/noise are read off the model once per step
    and applied as x += ginv F Delta + ginv sigma dW.
    """
    n_coarse = _ratio_int(T, Delta, "T/Delta")
    d, k = model.dim, model.noise_dim
    drv = NoiseDriver(seed, Delta, 1)
    blocks = drv.blocks([replica_id], n_particles, k, n_coarse)
    dws = (dw for block in blocks for dw in block[0])
    X = _state_array(x0, n_particles, d, "x0")[None].copy()
    out = np.empty((n_coarse + 1, n_particles, d))
    out[0] = X[0]
    for j, dw in enumerate(dws):
        g = model.friction_field(X, X)
        ginv = inv_batch(g)
        F = model.force_field(X, X)
        sig = model.noise_field(X, X)
        ginv_f = np.einsum("bnij,bnj->bni", ginv, F)
        ginv_sigma = np.matmul(ginv, sig)
        X = X + ginv_f * Delta + np.einsum("bnik,bnk->bni", ginv_sigma, dw[None])
        out[j + 1] = X[0]
    return out


def constant_reduction_check(
    model: SystemModel,
    T: float,
    seed: int,
    Delta: float = 0.01,
    n_particles: int = 1,
    x0=0.0,
) -> float:
    """Max gap between the limit stepper and a naive overdamped Euler path.

    Only meaningful for constant-friction models, where both correction
    drifts are exactly zero and the two integrations must coincide exactly
    on the same driver; no eps enters the comparison.  ValidationError unless
    the friction takes one value on every state and measure of the assumption
    probe at ``seed`` (``validate_assumptions``).
    """
    probed = validate_assumptions(model, ProbeConfig(seed=seed)).friction
    if not (probed == probed[0, 0]).all():
        raise ValidationError("reduction check requires a constant-friction model")
    limit = run_limit_path(model, T, Delta, n_particles, 0, seed, x0)
    naive = _naive_overdamped_path(model, T, Delta, n_particles, 0, seed, x0)
    return float(np.max(np.abs(limit - naive)))


# --- report serialization -----------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_value(v) -> str:
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(float(v))
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(u) for u in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f'"{key}": {_json_value(v[key])}' for key in sorted(v)) + "}"
    if v is None:
        return "null"
    raise ValidationError(f"cannot serialize {type(v)!r}")


def report_to_json(report: ConvergenceReport) -> str:
    """Fixed-schema JSON document; floats at 17 significant digits."""
    spec = instance(report, ConvergenceReport, "report").model_spec
    model_obj = {"family": spec.family, "params": dict(spec.params)} if spec else None
    fields = [
        ("model", model_obj),
        ("epsilons", list(report.epsilons)),
        ("errors", list(report.errors)),
        ("stderrs", list(report.stderrs)),
        ("slope", report.slope),
        ("intercept", report.intercept),
        ("r2", report.r2),
        ("ratios", list(report.ratios)),
    ]
    body = ",\n".join(f'  "{name}": {_json_value(value)}' for name, value in fields)
    return "{\n" + body + "\n}\n"


def report_to_csv(report: ConvergenceReport) -> str:
    """Companion table: epsilon,error,stderr,ratio_sqrt."""
    lines = ["epsilon,error,stderr,ratio_sqrt"]
    instance(report, ConvergenceReport, "report")
    for eps, err, se, ratio in zip(report.epsilons, report.errors, report.stderrs, report.ratios):
        lines.append(f"{_fmt(eps)},{_fmt(err)},{_fmt(se)},{_fmt(ratio)}")
    return "\n".join(lines) + "\n"
