"""Time integration of the second-order system and of its overdamped limit.

The second-order (mass ``eps``) system is advanced on a fast grid, either by
explicit Euler-Maruyama (stable for ``delta <= eps / kappa``) or by an
exponential stepper that freezes the coefficients over the step and applies
the exact damping semigroup.  The exponential stepper stays stable for any
``delta``, but its midpoint-kernel noise term loses velocity variance once
``delta`` reaches ``eps``: on the constant OU family (gamma = 2, sigma = 1)
``eps E|v|^2`` reads 0.147 +- 0.010 at ``delta/eps = 1`` and 0.0015 at
``delta/eps = 4``, against 0.25, so keep ``delta`` well below ``eps``.

The limit system is advanced on a coarse grid whose Brownian increments are
the window sums of the fast ones, so both systems ride the same noise path
and their difference estimates the strong error directly.

Every entry point (the one-step functions, coupled runs, limit paths and
velocity diagnostics) steps through one loop, ``_march``, which also owns
the blow-up guards; each caller's bookkeeping rides along as a callback.

Batched kernels carry state as (R, N, d) arrays: replica, particle,
component.  The empirical measure entering the friction is the ensemble of
the replica itself, frozen at the step start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .driver import NoiseDriver
from .errors import (
    AssumptionViolated,
    GridMismatch,
    NumericalBlowup,
    StepTooLarge,
    ValidationError,
)
from .linalg import expm, min_sym_eig_batch
from .measures import EmpiricalMeasure, wasserstein2_assignment
from .models import SystemModel, limit_drift_fields

DEFAULT_KAPPA = 20.0
BLOWUP_CAP = 1e8
# Replicas per batch in diagnostics_velocity; the value fixes the order in
# which the per-time sums are accumulated, so it is part of the output bytes.
DIAGNOSTICS_CHUNK = 128

SCHEME_EXPLICIT = "explicit"
SCHEME_EXPONENTIAL = "exponential"


# --- ensembles ---------------------------------------------------------------


def _state_array(value, n_particles: int, dim: int, name: str) -> np.ndarray:
    if n_particles < 1:
        raise ValidationError(f"n_particles must be >= 1, got {n_particles}")
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full((n_particles, dim), float(arr))
    elif arr.shape == (dim,):
        arr = np.tile(arr, (n_particles, 1))
    if arr.shape != (n_particles, dim):
        raise ValidationError(f"{name} must broadcast to ({n_particles}, {dim})")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    return arr


@dataclass
class ParticleEnsembleFull:
    """State (x_i, v_i) of the second-order system at time t, mass eps."""

    t: float
    eps: float
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValidationError("eps must be positive")
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.x.shape != self.v.shape or self.x.ndim != 2:
            raise ValidationError("x and v must be matching (N, d) arrays")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ValidationError("ensemble state must be finite")


@dataclass
class ParticleEnsembleLimit:
    """Positions x_i of the limit system at time t."""

    t: float
    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2:
            raise ValidationError("x must be an (N, d) array")
        if not np.all(np.isfinite(self.x)):
            raise ValidationError("ensemble state must be finite")


def _guard(arr: np.ndarray, what: str):
    peak = float(np.max(np.abs(arr))) if arr.size else 0.0
    if not np.isfinite(peak) or peak > BLOWUP_CAP:
        raise NumericalBlowup(f"{what} reached magnitude {peak:.3e} (cap {BLOWUP_CAP:.0e})")


# --- batched one-step kernels ------------------------------------------------


def _advance_full_em(model, X, V, delta, eps, dw):
    F = model.force_field(X, X)
    g = model.friction_field(X, X)
    sig = model.noise_field(X, X)
    X_new = X + V * delta
    V_new = (
        V
        + (F - np.einsum("bnij,bnj->bni", g, V)) * (delta / eps)
        + np.einsum("bnik,bnk->bni", sig, dw) / eps
    )
    return X_new, V_new


def _advance_full_exponential(model, X, V, delta, eps, dw):
    F = model.force_field(X, X)
    g = model.friction_field(X, X)
    sig = model.noise_field(X, X)
    scales = np.array([delta / eps, delta / (2.0 * eps)]).reshape(2, 1, 1, 1, 1)
    E, E_half = expm(-g * scales)
    ginv = np.linalg.inv(g)
    ident = np.broadcast_to(np.eye(g.shape[-1]), g.shape)
    drift_gain = np.einsum("bnij,bnjk->bnik", ginv, ident - E)
    V_new = (
        np.einsum("bnij,bnj->bni", E, V)
        + np.einsum("bnij,bnj->bni", drift_gain, F)
        + np.einsum("bnij,bnjk,bnk->bni", E_half, sig, dw) / eps
    )
    X_new = X + 0.5 * delta * (V + V_new)
    return X_new, V_new


def _advance_limit_em(model, X, Delta, dw):
    ginv_f, S, S_t, ginv_sigma = limit_drift_fields(model, X)
    drift = ginv_f + S + S_t
    return X + drift * Delta + np.einsum("bnik,bnk->bni", ginv_sigma, dw)


_FULL_SCHEMES = {
    SCHEME_EXPLICIT: _advance_full_em,
    SCHEME_EXPONENTIAL: _advance_full_exponential,
}


def _full_kernel(scheme: str, eps: float, delta: float, kappa: float = DEFAULT_KAPPA):
    """One-step kernel of ``scheme``; the explicit rule needs delta <= eps/kappa."""
    if scheme not in _FULL_SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}")
    if scheme == SCHEME_EXPLICIT and delta > eps / kappa * (1.0 + 1e-12):
        raise StepTooLarge(f"delta = {delta} exceeds eps/kappa = {eps / kappa:.3e}")
    return _FULL_SCHEMES[scheme]


# --- the stepping loop -------------------------------------------------------


def _march(
    model, n_windows, X, V, XL, fast, coarse, *,
    advance=None, eps=None, delta=None, Delta=None, on_step=None, on_window=None,
):
    """Advance (X, V) over each window's fast increments (R, n_steps, N, k)
    with ``advance``, then XL over its coarse increment (R, n_windows, N, k);
    ``fast=None`` or ``coarse=None`` leaves that system out.  Guards V after
    every fast step and X, XL after every window; calls ``on_step(s, V)``
    after fast step s (from 1) and ``on_window(j, X, V, XL)`` after window j.
    """
    m = fast.shape[1] // n_windows if fast is not None else 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_windows):
            if fast is not None:
                for s in range(j * m, (j + 1) * m):
                    X, V = advance(model, X, V, delta, eps, fast[:, s])
                    _guard(V, "velocity")
                    if on_step is not None:
                        on_step(s + 1, V)
                _guard(X, "position")
            if coarse is not None:
                XL = _advance_limit_em(model, XL, Delta, coarse[:, j])
                _guard(XL, "limit position")
            if on_window is not None:
                on_window(j, X, V, XL)
    return X, V, XL


# --- public one-step operations ----------------------------------------------


def _check_increment(dw, n_particles, noise_dim) -> np.ndarray:
    dw = np.asarray(dw, dtype=float)
    if dw.shape != (n_particles, noise_dim):
        raise ValidationError(
            f"increment must have shape ({n_particles}, {noise_dim}), got {dw.shape}"
        )
    return dw


def _step_full(ens, model, delta, dw, scheme, kappa=DEFAULT_KAPPA):
    advance = _full_kernel(scheme, ens.eps, delta, kappa)
    dw = _check_increment(dw, ens.x.shape[0], model.noise_dim)
    X, V, _ = _march(
        model, 1, ens.x[None], ens.v[None], None, dw[None, None], None,
        advance=advance, eps=ens.eps, delta=delta,
    )
    return ParticleEnsembleFull(ens.t + delta, ens.eps, X[0], V[0])


def step_full_em(
    ens: ParticleEnsembleFull,
    model: SystemModel,
    delta: float,
    dw,
    kappa: float = DEFAULT_KAPPA,
) -> ParticleEnsembleFull:
    """One explicit Euler-Maruyama step of the second-order system.

    Coefficients and the empirical measure are read from the step-start
    state.  Requires delta <= eps / kappa.
    """
    return _step_full(ens, model, delta, dw, SCHEME_EXPLICIT, kappa)


def step_full_exponential(
    ens: ParticleEnsembleFull,
    model: SystemModel,
    delta: float,
    dw,
) -> ParticleEnsembleFull:
    """One exponential-integrator step: coefficients frozen over the step,
    exact damping semigroup, midpoint-kernel stochastic convolution, and a
    trapezoid position update.  Stable for any delta, but the velocity
    variance is too small once delta reaches eps (see the module
    docstring)."""
    if delta < 0.0:
        raise ValidationError("delta must be nonnegative")
    if delta == 0.0:
        _check_increment(dw, ens.x.shape[0], model.noise_dim)
        return ParticleEnsembleFull(ens.t, ens.eps, ens.x.copy(), ens.v.copy())
    return _step_full(ens, model, delta, dw, SCHEME_EXPONENTIAL)


def step_limit_em(
    ens: ParticleEnsembleLimit,
    model: SystemModel,
    Delta: float,
    dw,
) -> ParticleEnsembleLimit:
    """One Euler-Maruyama step of the limit equation, with both correction
    drifts evaluated against the step-start ensemble."""
    if Delta <= 0.0:
        raise ValidationError("Delta must be positive")
    dw = _check_increment(dw, ens.x.shape[0], model.noise_dim)
    _, _, X = _march(model, 1, None, None, ens.x[None], None, dw[None, None], Delta=Delta)
    return ParticleEnsembleLimit(ens.t + Delta, X[0])


# --- coupled simulation ------------------------------------------------------


@dataclass
class PathRecord:
    """Coupled trajectories sampled on the coarse grid."""

    times: np.ndarray
    x_full: np.ndarray   # (n_coarse + 1, N, d)
    v_full: np.ndarray
    x_limit: np.ndarray


@dataclass
class CoupledResult:
    sup_diff: float
    paths: Optional[PathRecord] = None


def _ratio_int(big: float, small: float, what: str) -> int:
    ratio = big / small
    m = int(round(ratio))
    if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, abs(m)):
        raise GridMismatch(f"{what} = {ratio} is not a positive integer")
    return m


def _run_coupled_batch(
    model: SystemModel,
    eps: float,
    T: float,
    delta: float,
    Delta: float,
    n_particles: int,
    replica_ids,
    seed: int,
    x0,
    v0,
    scheme: str = SCHEME_EXPLICIT,
    kappa: float = DEFAULT_KAPPA,
    record_paths: bool = False,
):
    """Synchronously coupled fast/coarse run over a batch of replicas.

    Returns (sup_diffs, paths) with sup_diffs of shape (len(replica_ids),);
    paths (first replica only) when requested.
    """
    advance = _full_kernel(scheme, eps, delta, kappa)
    m = _ratio_int(Delta, delta, "Delta/delta")
    n_coarse = _ratio_int(T, Delta, "T/Delta")
    R = len(replica_ids)
    d, k = model.dim, model.noise_dim

    x_init = _state_array(x0, n_particles, d, "x0")
    v_init = _state_array(v0, n_particles, d, "v0")
    driver = NoiseDriver(seed, delta, m)
    fast = driver.fast_increments_batch(replica_ids, n_particles, k, n_coarse * m)
    coarse = driver.coarse_from_fast(fast)

    X = np.broadcast_to(x_init, (R, n_particles, d)).copy()
    V = np.broadcast_to(v_init, (R, n_particles, d)).copy()
    XL = X.copy()

    paths = rec = None
    if record_paths:
        rec = np.empty((3, n_coarse + 1, n_particles, d))  # x_full, v_full, x_limit
        rec[:, 0] = X[0], V[0], XL[0]
        paths = PathRecord(np.arange(n_coarse + 1) * Delta, *rec)

    sup = np.zeros(R)

    def on_window(j, X, V, XL):
        np.maximum(sup, np.max(np.sum((X - XL) ** 2, axis=-1), axis=-1), out=sup)
        if rec is not None:
            rec[:, j + 1] = X[0], V[0], XL[0]

    _march(
        model, n_coarse, X, V, XL, fast, coarse, advance=advance, eps=eps,
        delta=delta, Delta=Delta, on_window=on_window,
    )
    return sup, paths


def simulate_coupled(
    model: SystemModel,
    eps: float,
    T: float,
    delta: float,
    Delta: float,
    n_particles: int,
    replica_id: int,
    seed: int,
    x0=0.0,
    v0=0.0,
    scheme: str = SCHEME_EXPLICIT,
    kappa: float = DEFAULT_KAPPA,
    record_paths: bool = False,
) -> CoupledResult:
    """Run one synchronously coupled replica of the two systems.

    The second-order system advances on the fast grid, the limit system on
    the coarse grid driven by the window sums of the same increments; returns
    the sup over coarse grid points of the worst-particle squared distance.
    """
    sup, paths = _run_coupled_batch(
        model, eps, T, delta, Delta, n_particles, [replica_id], seed,
        x0, v0, scheme, kappa, record_paths,
    )
    return CoupledResult(float(sup[0]), paths)


def run_limit_path(
    model: SystemModel,
    T: float,
    Delta: float,
    n_particles: int,
    replica_id: int,
    seed: int,
    x0=0.0,
) -> np.ndarray:
    """Limit-system trajectory on its own grid: (n_coarse + 1, N, d)."""
    n_coarse = _ratio_int(T, Delta, "T/Delta")
    d, k = model.dim, model.noise_dim
    x_init = _state_array(x0, n_particles, d, "x0")
    out = np.empty((n_coarse + 1, n_particles, d))
    out[0] = x_init
    driver = NoiseDriver(seed, Delta, 1)
    dws = driver.fast_increments(replica_id, n_particles, k, n_coarse)

    def on_window(j, X, V, XL):
        out[j + 1] = XL[0]

    _march(
        model, n_coarse, None, None, out[:1].copy(), None, dws[None],
        Delta=Delta, on_window=on_window,
    )
    return out


def write_path_csv(fileobj, paths: PathRecord, replica_id: int):
    """Dump a coupled trajectory: one row per (time, particle, component)."""
    fileobj.write("t,replica,particle,component,x_eps,v_eps,x_limit\n")
    n_times, n_particles, d = paths.x_full.shape
    for j in range(n_times):
        t = paths.times[j]
        for p in range(n_particles):
            for c in range(d):
                fileobj.write(
                    f"{t:.17g},{replica_id},{p},{c},"
                    f"{paths.x_full[j, p, c]:.17g},"
                    f"{paths.v_full[j, p, c]:.17g},"
                    f"{paths.x_limit[j, p, c]:.17g}\n"
                )


# --- velocity diagnostics ----------------------------------------------------


@dataclass
class VelocityDiagnostics:
    """Monte Carlo summaries of the velocity moment bounds.

    ``sup_ev2`` is the sup over the diagnostic grid of eps * E|v_t|^2 (the
    expectation over replicas), with the pointwise standard error at the
    maximizing time.  The maximum of noisy means is biased upward and that
    standard error ignores the choice of time: on a flat plateau the z-score
    against the true value averaged 1.4 +- 0.45 over 40 seeds (explicit rule,
    delta = eps/100, 200 replicas), so a 3 SE check on it fails on some
    seeds.  ``mean_sup_ev4`` is E[(sup_t |eps v_t|)^4] with the sup tracked
    at every fast step.
    """

    sup_ev2: float
    sup_ev2_stderr: float
    sup_ev2_time: float
    mean_sup_ev4: float
    mean_sup_ev4_stderr: float
    replicas: int


def diagnostics_velocity(
    model: SystemModel,
    eps: float,
    T: float,
    delta: float,
    replicas: int,
    seed: int,
    n_record: int = 10,
    n_particles: int = 1,
    scheme: str = SCHEME_EXPLICIT,
    kappa: float = DEFAULT_KAPPA,
    x0=0.0,
    v0=0.0,
) -> VelocityDiagnostics:
    """Estimate the two velocity moment functionals of the mass-eps system."""
    if replicas < 2:
        raise ValidationError("diagnostics need at least two replicas")
    if n_record < 1:
        raise ValidationError("n_record must be >= 1")
    advance = _full_kernel(scheme, eps, delta, kappa)
    n_steps = _ratio_int(T, delta, "T/delta")
    rec_every = max(1, n_steps // n_record)
    rec_steps = range(0, n_steps + 1, rec_every)
    d, k = model.dim, model.noise_dim
    x_init = _state_array(x0, n_particles, d, "x0")
    v_init = _state_array(v0, n_particles, d, "v0")

    z_sum = np.zeros(len(rec_steps))
    z_sq_sum = np.zeros(len(rec_steps))
    sup4 = np.empty(replicas)

    def on_step(s, V):
        np.maximum(
            sup_ev, np.max(np.linalg.norm(eps * V, axis=-1), axis=-1), out=sup_ev
        )
        if s % rec_every == 0:
            z = eps * np.mean(np.sum(V * V, axis=-1), axis=-1)  # (R,)
            z_sum[s // rec_every] += z.sum()
            z_sq_sum[s // rec_every] += (z * z).sum()

    driver = NoiseDriver(seed, delta, 1)
    for start in range(0, replicas, DIAGNOSTICS_CHUNK):
        ids = list(range(start, min(start + DIAGNOSTICS_CHUNK, replicas)))
        R = len(ids)
        fast = driver.fast_increments_batch(ids, n_particles, k, n_steps)
        X = np.broadcast_to(x_init, (R, n_particles, d)).copy()
        V = np.broadcast_to(v_init, (R, n_particles, d)).copy()
        sup_ev = np.zeros(R)
        on_step(0, V)
        _march(
            model, 1, X, V, None, fast, None, advance=advance, eps=eps,
            delta=delta, on_step=on_step,
        )
        sup4[start:start + R] = sup_ev ** 4

    mean_curve = z_sum / replicas
    j_star = int(np.argmax(mean_curve))
    var = (z_sq_sum[j_star] - replicas * mean_curve[j_star] ** 2) / (replicas - 1)
    stderr = float(np.sqrt(max(var, 0.0) / replicas))
    m4 = float(np.mean(sup4))
    m4_se = float(np.std(sup4, ddof=1) / np.sqrt(replicas))
    return VelocityDiagnostics(
        sup_ev2=float(mean_curve[j_star]),
        sup_ev2_stderr=stderr,
        sup_ev2_time=float(rec_steps[j_star] * delta),
        mean_sup_ev4=m4,
        mean_sup_ev4_stderr=m4_se,
        replicas=replicas,
    )


# --- assumption validation ---------------------------------------------------


@dataclass(frozen=True)
class ProbeConfig:
    """State box, measure draws, and pair counts for assumption probing."""

    lo: float = -2.0
    hi: float = 2.0
    n_states: int = 64
    n_measures: int = 4
    measure_size: int = 8
    n_pairs: int = 64
    fd_step: float = 1e-5
    seed: int = 0
    eig_floor: float = 1e-8


@dataclass
class AssumptionReport:
    min_sym_eig: float
    argmin_state: np.ndarray
    lipschitz: dict = field(default_factory=dict)
    max_dmu_norm: float = 0.0
    n_probes: int = 0
    eig_floor: float = 1e-8

    @property
    def violated(self) -> bool:
        return self.min_sym_eig <= self.eig_floor


def validate_assumptions(
    model: SystemModel, probe: ProbeConfig = ProbeConfig()
) -> AssumptionReport:
    """Probe ellipticity and regularity of the model coefficients.

    Scans a state box against random empirical measures: reports the smallest
    symmetric-part friction eigenvalue (raising AssumptionViolated when it
    falls to the floor), the worst difference-quotient Lipschitz ratios of
    force, noise, friction and its state derivative, and the largest measure-
    derivative norm.
    """
    rng = np.random.default_rng(probe.seed)
    d = model.dim
    if d == 1:
        states = np.linspace(probe.lo, probe.hi, probe.n_states)[:, None]
    else:
        states = rng.uniform(probe.lo, probe.hi, size=(probe.n_states, d))
    measures = [
        EmpiricalMeasure(rng.uniform(probe.lo, probe.hi, size=(probe.measure_size, d)))
        for _ in range(probe.n_measures)
    ]

    # every probe state against every measure, as one (measure, state) stack
    X = np.repeat(states[None], len(measures), axis=0)
    samples = np.stack([mu.samples for mu in measures])
    lam = min_sym_eig_batch(model.friction_field(X, samples))
    m, j = np.unravel_index(np.argmin(lam), lam.shape)
    min_eig, argmin = float(lam[m, j]), states[j].copy()
    report = AssumptionReport(
        min_sym_eig=min_eig, argmin_state=argmin, n_probes=lam.size, eig_floor=probe.eig_floor
    )

    # difference-quotient Lipschitz ratios over random probe pairs; half the
    # pairs are local perturbations of size fd_step
    ratios = {"force": 0.0, "noise": 0.0, "friction": 0.0, "friction_dx": 0.0}
    max_dmu = 0.0
    for pair_i in range(probe.n_pairs):
        x1 = rng.uniform(probe.lo, probe.hi, size=d)
        if pair_i % 2 == 0:
            direction = rng.normal(size=d)
            x2 = x1 + probe.fd_step * direction / max(np.linalg.norm(direction), 1e-300)
        else:
            x2 = rng.uniform(probe.lo, probe.hi, size=d)
        m1, m2 = rng.choice(len(measures), size=2)
        mu1, mu2 = measures[m1], measures[m2]
        dx = float(np.linalg.norm(x1 - x2))
        dw = wasserstein2_assignment(mu1, mu2)
        denom = dx + dw
        if denom == 0.0:
            continue
        mu_arg1 = mu1 if model.mode == "extension" else None
        mu_arg2 = mu2 if model.mode == "extension" else None
        denom_state = dx if model.mode != "extension" else denom
        if dx > 0.0 or model.mode == "extension":
            df = np.linalg.norm(model.force(x1, mu_arg1) - model.force(x2, mu_arg2))
            dsig = np.linalg.norm(model.noise(x1, mu_arg1) - model.noise(x2, mu_arg2))
            if denom_state > 0.0:
                ratios["force"] = max(ratios["force"], df / denom_state)
                ratios["noise"] = max(ratios["noise"], dsig / denom_state)
        dgamma = np.linalg.norm(model.friction(x1, mu1) - model.friction(x2, mu2))
        ddx = np.linalg.norm(
            (model.friction_dx(x1, mu1) - model.friction_dx(x2, mu2)).reshape(-1)
        )
        ratios["friction"] = max(ratios["friction"], dgamma / denom)
        ratios["friction_dx"] = max(ratios["friction_dx"], ddx / denom)
        y = mu1.samples[int(rng.integers(0, mu1.size))]
        dmu_norm = float(np.linalg.norm(model.friction_dmu(x1, mu1, y).reshape(-1)))
        max_dmu = max(max_dmu, dmu_norm)

    report.lipschitz = ratios
    report.max_dmu_norm = max_dmu

    if report.violated:
        raise AssumptionViolated(
            f"min symmetric-part eigenvalue {min_eig:.3e} <= {probe.eig_floor:.0e} "
            f"at state {argmin}",
            probe_point=argmin,
            report=report,
        )
    return report
