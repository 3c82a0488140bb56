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
and their difference estimates the strong error directly.  A sweep over
several eps draws once, on the union of their fast grids, and each eps steps
over the sums of that draw on its own grid: every eps and the one limit path
ride one Brownian path.

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

from .driver import NoiseDriver, grid_increments
from .errors import (
    AssumptionViolated,
    GridMismatch,
    NumericalBlowup,
    SizeLimitExceeded,
    StepTooLarge,
    ValidationError,
    ValidationFailure,
)
from .linalg import expm, inv_batch, min_sym_eig_batch
from .measures import EmpiricalMeasure, wasserstein2_assignment
from .models import MODE_EXTENSION, SystemModel, _reals, limit_drift_fields

DEFAULT_KAPPA = 20.0
BLOWUP_CAP = 1e8
# Replicas per batch: about BATCH_STATES values (512 KB) in a step's largest
# array, at least BATCH_MIN_REPLICAS.  Larger batches amortize the
# interpreter's cost per step (constant OU, 64 particles: diagnostics 0.58 s
# in batches of 16, 0.44 s in batches of 128), but pairwise arrays grow with
# them (interaction, d = 4, 32 particles: sweep peak RSS 139 MB in batches of
# 16, 438 MB in batches of 64).  Results do not depend on either value.
BATCH_STATES = 65536
BATCH_MIN_REPLICAS = 16

SCHEME_EXPLICIT = "explicit"
SCHEME_EXPONENTIAL = "exponential"


# --- ensembles ---------------------------------------------------------------


def _state_array(value, n_particles: int, dim: int, name: str) -> np.ndarray:
    """``value``, a number, a ``(dim,)`` row or an ``(n_particles, dim)`` array, as
    a read-only ``(n_particles, dim)`` view: nothing of size n_particles is made."""
    if n_particles < 1:
        raise ValidationError(f"n_particles must be >= 1, got {n_particles}")
    try:
        arr = np.asarray(_reals(value, name))
    except ValueError:   # ragged nesting
        raise ValidationError(f"{name} is a ragged list") from None
    except ValidationFailure as exc:   # a bool, a string, or a number not finite
        raise ValidationError(str(exc)) from None
    if arr.shape not in ((), (dim,), (n_particles, dim)):
        raise ValidationError(f"{name} must broadcast to ({n_particles}, {dim})")
    try:
        return np.broadcast_to(arr, (n_particles, dim))
    except ValueError:   # more bytes than an array can address
        raise SizeLimitExceeded(f"{name}: ({n_particles}, {dim}) is too large") from None


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
    ginv = inv_batch(g)
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
    if not (0.0 < eps < np.inf and 0.0 < delta < np.inf):
        raise ValidationError(f"eps = {eps} and delta = {delta} must be positive and finite")
    if scheme == SCHEME_EXPLICIT:
        if not 0.0 < kappa < np.inf:
            raise ValidationError(f"kappa = {kappa} must be positive and finite")
        if delta > eps / kappa * (1.0 + 1e-12):
            raise StepTooLarge(f"delta = {delta} exceeds eps/kappa = {eps / kappa:.3e}")
    return _FULL_SCHEMES[scheme]


def _check_explicit_damping(gammas: np.ndarray, kappa: float):
    """Raise StepTooLarge unless one explicit step, v -> (I - gamma / kappa) v,
    shrinks every eigendirection of every friction matrix in ``gammas``."""
    worst = float(np.max(np.abs(1.0 - np.linalg.eigvals(gammas) / kappa)))
    if not worst < 1.0:
        raise StepTooLarge(
            f"explicit rule at kappa = {kappa}: a probed friction gives the velocity factor "
            f"|1 - lambda/kappa| = {worst:.3e} >= 1; raise kappa or use the exponential rule"
        )


def _replica_batches(model: SystemModel, replicas: int, n_particles: int, workers: int = 1):
    """Consecutive replica ranges sized as above, at most ceil(replicas / workers).

    A replica's largest array holds n_particles * dim values, times
    n_particles when its coefficients read the ensemble's measure (pairwise
    differences)."""
    states = n_particles * model.dim
    if model.mode == MODE_EXTENSION or not model.dmu_is_zero:
        states *= n_particles
    size = max(BATCH_MIN_REPLICAS, -(-BATCH_STATES // states))
    size = min(size, -(-replicas // workers))
    return [range(s, min(s + size, replicas)) for s in range(0, replicas, size)]


# --- the stepping loop -------------------------------------------------------


def _march(
    model, blocks, systems, XL, *,
    advance=None, Delta=None, on_step=None, on_window=None,
):
    """Step through ``blocks``, pairs (fast, coarse) of increments for
    consecutive runs of whole windows, fast (R, w * m, N, k) with m fast
    substeps per window and coarse (R, w, N, k); either may be None, leaving
    that system out, and a block without coarse increments is one window.
    Per window, each mass-eps system of ``systems`` (a list of
    [eps, X, V, delta, cuts], X and V updated in place) is advanced with
    ``advance`` by steps of its own ``delta``: over the window's fast
    increments, or, with ``cuts`` of fewer than m steps, over their sums on
    its coarser grid (``driver.grid_increments``); then the limit XL once
    over its coarse increment.  Guards V after every fast step and X, XL
    after every window; calls ``on_step(s, V)`` after step s (from 1) of each
    system and ``on_window(j, systems, XL)`` after window j.  Returns XL.

    A block is let go before the next one is drawn, so a streamed run holds
    one block at a time, provided ``blocks`` keeps no reference to what it
    yielded: ``map`` keeps none, a generator expression keeps its loop
    variable while it draws the next block.
    """
    j = 0
    done = [0] * len(systems)   # steps of each system so far
    with np.errstate(over="ignore", invalid="ignore"):
        for fast, coarse in blocks:
            n_windows = coarse.shape[1] if coarse is not None else 1
            m = fast.shape[1] // n_windows if fast is not None else 0
            for w in range(n_windows):
                for i, system in enumerate(systems):
                    eps, X, V, delta, cuts = system
                    steps = fast[:, w * m:(w + 1) * m]
                    if cuts is not None and len(cuts) < m:
                        steps = grid_increments(steps, cuts)
                    for s in range(steps.shape[1]):
                        X, V = advance(model, X, V, delta, eps, steps[:, s])
                        _guard(V, "velocity")
                        if on_step is not None:
                            on_step(done[i] + s + 1, V)
                    done[i] += steps.shape[1]
                    _guard(X, "position")
                    system[1:3] = X, V
                if coarse is not None:
                    XL = _advance_limit_em(model, XL, Delta, coarse[:, w])
                    _guard(XL, "limit position")
                if on_window is not None:
                    on_window(j, systems, XL)
                j += 1
            fast = coarse = steps = None   # no view of the block outlives it
    return XL


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
    system = [ens.eps, ens.x[None], ens.v[None], delta, None]
    _march(model, [(dw[None, None], None)], [system], None, advance=advance)
    return ParticleEnsembleFull(ens.t + delta, ens.eps, system[1][0], system[2][0])


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
    X = _march(model, [(None, dw[None, None])], [], ens.x[None], Delta=Delta)
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
    if not 0.0 < small < np.inf:
        raise GridMismatch(f"{what}: the step {small} is not positive and finite")
    ratio = big / small
    m = int(round(ratio)) if np.isfinite(ratio) else 0
    if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, abs(m)):
        raise GridMismatch(f"{what} = {ratio} is not a positive integer")
    return m


def _coupled_sweep(
    model: SystemModel,
    eps_values,
    deltas,
    T: float,
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
    """Synchronously coupled fast/coarse runs of one replica batch at every
    eps of ``eps_values``, eps_values[i] on the fast step deltas[i].

    One Brownian path drives them all: the increments are drawn once, on the
    union of the fast grids within each coarse window (``NoiseDriver.union``),
    each eps steps over their sums on its own grid, and the limit, which has
    no eps in it, steps once per window over their window sums.  Every eps
    marches in lockstep, window by window, and is compared with that one
    limit path.  Returns (sup_diffs, paths) with sup_diffs of shape
    (len(eps_values), len(replica_ids)); paths (first eps, first replica)
    when requested.
    """
    n_coarse = _ratio_int(T, Delta, "T/Delta")
    ms = []
    for eps, delta in zip(eps_values, deltas):
        advance = _full_kernel(scheme, eps, delta, kappa)
        ms.append(_ratio_int(Delta, delta, "Delta/delta"))
    noise, cuts = NoiseDriver.union(seed, Delta, deltas, ms)
    R = len(replica_ids)
    d, k = model.dim, model.noise_dim

    x_init = _state_array(x0, n_particles, d, "x0")
    v_init = _state_array(v0, n_particles, d, "v0")
    X0 = np.broadcast_to(x_init, (R, n_particles, d))
    V0 = np.broadcast_to(v_init, (R, n_particles, d))

    paths = rec = None
    if record_paths:
        rec = np.empty((3, n_coarse + 1, n_particles, d))  # x_full, v_full, x_limit
        rec[:, 0] = X0[0], V0[0], X0[0]
        paths = PathRecord(np.arange(n_coarse + 1) * Delta, *rec)

    sup = np.zeros((len(eps_values), R))
    blocks = map(
        lambda fast: (fast, noise.coarse_from_fast(fast)),
        noise.blocks(replica_ids, n_particles, k, n_coarse),
    )

    def on_window(j, systems, XL):
        for i, (_, X, V, _, _) in enumerate(systems):
            gap = np.max(np.sum((X - XL) ** 2, axis=-1), axis=-1)
            np.maximum(sup[i], gap, out=sup[i])
        if rec is not None:
            rec[:, j + 1] = systems[0][1][0], systems[0][2][0], XL[0]

    systems = [
        [eps, X0.copy(), V0.copy(), delta, c] for eps, delta, c in zip(eps_values, deltas, cuts)
    ]
    _march(model, blocks, systems, X0.copy(), advance=advance, Delta=Delta, on_window=on_window)
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
    sup, paths = _coupled_sweep(
        model, [eps], [delta], T, Delta, n_particles, [replica_id], seed,
        x0, v0, scheme, kappa, record_paths,
    )
    return CoupledResult(float(sup[0, 0]), paths)


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
    blocks = map(lambda dws: (None, dws), driver.blocks([replica_id], n_particles, k, n_coarse))

    def on_window(j, systems, XL):
        out[j + 1] = XL[0]

    _march(model, blocks, [], out[:1].copy(), Delta=Delta, on_window=on_window)
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
    """Estimate the two velocity moment functionals of the mass-eps system.

    Replicas march in the sweep's work-sized batches (``_replica_batches``).
    Each batch's per-time records are folded into two running sums per record
    time, strictly left to right in replica order, ((c + z_0) + z_1) + ..., so
    no batch size moves a byte, and the record memory is 2 x n_rec values,
    whatever the replica count or batch size."""
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
    sup_ev = np.zeros(replicas)

    def on_step(s, V):
        sup_ev[ids] = np.maximum(sup_ev[ids], np.linalg.norm(eps * V, axis=-1).max(axis=-1))
        if s % rec_every == 0:
            j = s // rec_every
            z = eps * np.mean(np.sum(V * V, axis=-1), axis=-1)
            # add.accumulate is a strict left fold, unlike the pairwise sum
            z_sum[j] = np.add.accumulate(np.concatenate(([z_sum[j]], z)))[-1]
            z_sq_sum[j] = np.add.accumulate(np.concatenate(([z_sq_sum[j]], z * z)))[-1]

    driver = NoiseDriver(seed, delta, 1)
    for batch in _replica_batches(model, replicas, n_particles):
        ids = slice(batch.start, batch.stop)
        X = np.broadcast_to(x_init, (len(batch), n_particles, d)).copy()
        V = np.broadcast_to(v_init, (len(batch), n_particles, d)).copy()
        on_step(0, V)
        blocks = map(lambda fast: (fast, None), driver.blocks(batch, n_particles, k, n_steps))
        _march(model, blocks, [[eps, X, V, delta, None]], None, advance=advance, on_step=on_step)

    sup4 = sup_ev ** 4
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

# Probe measures hold PROBE_MEASURE_SIZE samples, half the Lipschitz pairs are
# perturbations of length PROBE_FD_STEP, and sym(gamma) must stay above EIG_FLOOR.
PROBE_MEASURE_SIZE = 8
PROBE_FD_STEP = 1e-5
EIG_FLOOR = 1e-8


@dataclass(frozen=True)
class ProbeConfig:
    """State box, pair counts and seed for assumption probing."""

    lo: float = -2.0
    hi: float = 2.0
    n_states: int = 64
    n_measures: int = 4
    n_pairs: int = 64
    seed: int = 0


@dataclass
class AssumptionReport:
    min_sym_eig: float
    argmin_state: np.ndarray
    friction: np.ndarray   # (n_measures, n_states, d, d): each probe state, each measure
    lipschitz: dict = field(default_factory=dict)
    max_dmu_norm: float = 0.0
    n_probes: int = 0

    @property
    def violated(self) -> bool:
        return not self.min_sym_eig > EIG_FLOOR   # NaN counts as violated


def validate_assumptions(
    model: SystemModel, probe: ProbeConfig = ProbeConfig()
) -> AssumptionReport:
    """Probe ellipticity and regularity of the model coefficients.

    Scans a state box against random empirical measures: reports the smallest
    symmetric-part friction eigenvalue (raising AssumptionViolated when it
    falls to EIG_FLOOR), the worst Lipschitz ratios of force, noise, friction
    and its state derivative over random pairs (x1, mu1), (x2, mu2), against
    |x1 - x2| + W2(mu1, mu2) (against |x1 - x2| for force and noise in
    state-only mode), and the largest measure-derivative norm.  Each
    coefficient is evaluated once, on the stack of all pairs, through the
    ``*_field`` calls of the integrators.
    """
    rng = np.random.default_rng(probe.seed)
    d = model.dim
    if d == 1:
        states = np.linspace(probe.lo, probe.hi, probe.n_states)[:, None]
    else:
        states = rng.uniform(probe.lo, probe.hi, size=(probe.n_states, d))
    measures = [
        EmpiricalMeasure(rng.uniform(probe.lo, probe.hi, size=(PROBE_MEASURE_SIZE, d)))
        for _ in range(probe.n_measures)
    ]

    # every probe state against every measure, as one (measure, state) stack
    X = np.repeat(states[None], len(measures), axis=0)
    samples = np.stack([mu.samples for mu in measures])
    gammas = model.friction_field(X, samples)
    lam = min_sym_eig_batch(gammas)
    m, j = np.unravel_index(np.argmin(lam), lam.shape)
    min_eig, argmin = float(lam[m, j]), states[j].copy()

    # random probe pairs, drawn in order; half are local perturbations
    P = probe.n_pairs
    x1, x2, y = np.zeros((3, P, 1, d))
    m1, m2 = np.zeros((2, P), dtype=int)
    dx, denom = np.zeros((2, P))
    w2 = {}   # per ordered pair (m1, m2): the transposed problem can round differently
    for p in range(P):
        x1[p] = rng.uniform(probe.lo, probe.hi, size=d)
        if p % 2 == 0:
            direction = rng.normal(size=d)
            x2[p] = x1[p] + PROBE_FD_STEP * direction / max(np.linalg.norm(direction), 1e-300)
        else:
            x2[p] = rng.uniform(probe.lo, probe.hi, size=d)
        m1[p], m2[p] = key = tuple(rng.choice(len(measures), size=2))
        dx[p] = np.linalg.norm(x1[p] - x2[p])
        if key not in w2:
            w2[key] = wasserstein2_assignment(measures[m1[p]], measures[m2[p]])
        denom[p] = dx[p] + w2[key]
        if denom[p] != 0.0:   # zero only when lo == hi; such a pair is left out
            y[p] = measures[m1[p]].samples[int(rng.integers(0, PROBE_MEASURE_SIZE))]

    # each coefficient once: x1 against mu1 in rows :P, x2 against mu2 in rows P:
    X12, S12 = np.concatenate([x1, x2]), np.concatenate([samples[m1], samples[m2]])
    state_denom = denom if model.mode == MODE_EXTENSION else dx
    ratios = {}
    for name, field_at, den in (
        ("force", model.force_field, state_denom),
        ("noise", model.noise_field, state_denom),
        ("friction", model.friction_field, denom),
        ("friction_dx", model.friction_dx_field, denom),
    ):
        f = field_at(X12, S12)
        ratios[name] = max([0.0] + [
            np.linalg.norm((f[p] - f[P + p]).reshape(-1)) / den[p] for p in np.flatnonzero(den)
        ])
    dmu = model.friction_dmu_field(x1, samples[m1], y)
    dmu_norms = [float(np.linalg.norm(dmu[p].reshape(-1))) for p in np.flatnonzero(denom)]

    report = AssumptionReport(
        min_eig, argmin, gammas, ratios, max([0.0] + dmu_norms), n_probes=lam.size
    )
    if report.violated:
        raise AssumptionViolated(
            f"min symmetric-part eigenvalue {min_eig:.3e} <= {EIG_FLOOR:.0e} "
            f"at state {argmin}",
            probe_point=argmin,
            report=report,
        )
    return report
