"""Time integration of the second-order system and of its overdamped limit.

The second-order (mass ``eps``) system is advanced on a fast grid, either by
explicit Euler-Maruyama (stable for ``delta <= eps / kappa``) or by an
exponential stepper that freezes the coefficients over the step and applies
the exact damping semigroup.  The exponential stepper stays stable for any
``delta``, but its midpoint-kernel noise term loses velocity variance once
``delta`` reaches ``eps``: on the constant OU family (gamma = 2, sigma = 1)
``eps E|v|^2`` reads 0.147 +- 0.010 at ``delta/eps = 1`` and 0.0015 at
``delta/eps = 4``, against 0.25, so keep ``delta`` well below ``eps``.

The limit system is advanced on a coarse grid, one step a window, whose
increments are the window sums of the fast ones, added left to right as
every grid's are (``driver.grid_increments``), so both systems ride the same
noise path and their difference estimates the strong error directly.

Every batched run (sweeps, coupled runs, limit paths, velocity diagnostics)
is one runner, ``_run_replicas``: replica batches, each drawing its noise
once, on the union of the eps fast grids and the limit's, so every eps and
the limit ride one Brownian path.  It and the one-step functions step every
system, the limit one of them, through one loop, ``_march``, which owns the
blow-up guards; each entry point's bookkeeping rides along as a callback.

Batched kernels carry state as (R, N, d) arrays: replica, particle,
component, and take every d x d product through ``linalg.matvec`` or
``linalg.matmat``, plain arithmetic on diagonal coefficients.  The exponential
step keeps a diagonal friction as its (R, N, d) diagonal: no d x d
exponential or inverse is formed, only the midpoint kernel's matrix for a
dense sigma, and the bits are those of the matrix formulas.  The empirical
measure entering the friction is the replica's own ensemble at the step
start.
"""

from __future__ import annotations

import functools
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
    array,
    instance,
    integer,
    real,
)
from .linalg import (
    _diagonal,
    diagonal_matrix,
    entrywise,
    exp_diagonal,
    expm,
    inv_batch,
    inv_diagonal,
    matmat,
    matvec,
    min_sym_eig_batch,
)
from .measures import EmpiricalMeasure, wasserstein2_assignment
from .models import MODE_EXTENSION, SystemModel, limit_drift_fields

DEFAULT_KAPPA = 20.0
BLOWUP_CAP = 1e8
# ``_ratio_int`` snaps a step ratio within STEP_RTOL of an integer, so a snapped
# step may exceed eps/kappa by it plus rounding: the explicit rule allows twice.
STEP_RTOL = 1e-9
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
    integer(n_particles, "n_particles", 1)
    arr = array(value, name)
    if arr.shape not in ((), (dim,), (n_particles, dim)):
        raise ValidationError(f"{name} must broadcast to ({n_particles}, {dim})")
    try:
        return np.broadcast_to(arr, (n_particles, dim))
    except ValueError:   # more bytes than an array can address
        raise SizeLimitExceeded(f"{name}: ({n_particles}, {dim}) is too large") from None


def _zeros(shape, what: str) -> np.ndarray:
    """``np.zeros(shape)``, or SizeLimitExceeded when it cannot be held."""
    try:
        return np.zeros(shape)
    except (ValueError, MemoryError):   # beyond addressable, or beyond memory
        raise SizeLimitExceeded(f"{what}: {shape} values are too many to hold") from None


def _start(init: np.ndarray, R: int, what: str) -> np.ndarray:
    """``R`` copies of the (N, d) start state ``init``, every bit kept, by ``_zeros``."""
    X = _zeros((R,) + init.shape, what)
    X[...] = init
    return X


@dataclass
class ParticleEnsembleFull:
    """State (x_i, v_i) of the second-order system at time t, mass eps."""

    t: float
    eps: float
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        real(self.t, "t")
        real(self.eps, "eps", positive=True)
        try:
            self.x = np.asarray(self.x, dtype=float)
            self.v = np.asarray(self.v, dtype=float)
        except (TypeError, ValueError):   # a string, a ragged list
            raise ValidationError("x and v must be arrays of numbers") from None
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
        real(self.t, "t")
        try:
            self.x = np.asarray(self.x, dtype=float)
        except (TypeError, ValueError):   # a string, a ragged list
            raise ValidationError("x must be an array of numbers") from None
        if self.x.ndim != 2:
            raise ValidationError("x must be an (N, d) array")
        if not np.all(np.isfinite(self.x)):
            raise ValidationError("ensemble state must be finite")


def _guard(arr: np.ndarray, what: str):
    """Raise NumericalBlowup when ``arr`` holds a NaN, an infinity or a value
    above BLOWUP_CAP in magnitude; a value equal to the cap, or an empty
    array, passes.  One ndarray reduction, ``np.abs(arr).max()``, which
    propagates NaN, and one comparison that NaN fails, since a guard runs
    after every step."""
    peak = float(np.abs(arr).max()) if arr.size else 0.0
    if not peak <= BLOWUP_CAP:
        raise NumericalBlowup(f"{what} reached magnitude {peak:.3e} (cap {BLOWUP_CAP:.0e})")


# --- batched one-step kernels ------------------------------------------------


def _advance_full_em(model, X, V, delta, eps, dw):
    F = model.force_field(X, X)
    g = model.friction_field(X, X)
    sig = model.noise_field(X, X)
    return X + V * delta, V + (F - matvec(g, V)) * (delta / eps) + matvec(sig, dw) / eps


def _advance_full_exponential(model, X, V, delta, eps, dw):
    """E = e^{-gamma delta/eps} on V, gamma^{-1} (I - E) on F and the midpoint
    kernel e^{-gamma delta/(2 eps)} on sigma dw.  A diagonal gamma keeps its
    (R, N, d) diagonal: the exponentials, the inverse and their products are
    entrywise, with the bits of the matrix formulas (``expm``, ``inv_batch``,
    ``matmat``, ``matvec``) on its laid-out matrices."""
    F = model.force_field(X, X)
    g = model.friction_field(X, X)
    sig = model.noise_field(X, X)
    scales = np.array([delta / eps, delta / (2.0 * eps)]).reshape(2, 1, 1, 1)
    diag = _diagonal(g)
    if diag is None:
        E, E_half = expm(-g * scales[..., None])
        drift_gain = matmat(inv_batch(g), np.eye(g.shape[-1]) - E)
        V_new = matvec(E, V) + matvec(drift_gain, F) + matvec(E_half, sig, dw) / eps
        return X + 0.5 * delta * (V + V_new), V_new
    E, E_half = exp_diagonal(-diag * scales)
    drift_gain = entrywise(inv_diagonal(diag), 1.0 - E)
    sig_diag = _diagonal(sig)
    if sig_diag is None:   # a dense or non-square sigma: matvec's einsum
        noise = np.einsum("...ij,...jk,...k->...i", diagonal_matrix(E_half), sig, dw)
    else:
        noise = entrywise(E_half, sig_diag, dw)
    V_new = entrywise(E, V) + entrywise(drift_gain, F) + noise / eps
    return X + 0.5 * delta * (V + V_new), V_new


def _advance_limit_em(model, X, V, Delta, eps, dw):   # V (None) passes through, eps unused
    ginv_f, S, S_t, ginv_sigma = limit_drift_fields(model, X)
    return X + (ginv_f + S + S_t) * Delta + matvec(ginv_sigma, dw), V


_FULL_SCHEMES = {
    SCHEME_EXPLICIT: _advance_full_em,
    SCHEME_EXPONENTIAL: _advance_full_exponential,
}


def _full_kernel(scheme: str, eps: float, delta: float, kappa: float = DEFAULT_KAPPA):
    """One-step kernel of ``scheme``; the explicit rule needs delta <= eps/kappa."""
    if scheme not in _FULL_SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}")
    eps, delta = real(eps, "eps", positive=True), real(delta, "delta", positive=True)
    if scheme == SCHEME_EXPLICIT:
        kappa = real(kappa, "kappa", positive=True)
        if delta > eps / kappa * (1.0 + 2 * STEP_RTOL):
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


def _replica_batches(model: SystemModel, replicas: int, n_particles: int):
    """Consecutive replica ranges sized as above.

    A replica's largest array holds n_particles * dim values, times
    n_particles when its coefficients read the ensemble's measure (pairwise
    differences)."""
    states = n_particles * model.dim
    if model.mode == MODE_EXTENSION or not model.dmu_is_zero:
        states *= n_particles
    size = max(BATCH_MIN_REPLICAS, -(-BATCH_STATES // states))
    return [range(s, min(s + size, replicas)) for s in range(0, replicas, size)]


# --- the stepping loop -------------------------------------------------------


def _march(model, blocks, systems, *, on_step=None, on_window=None):
    """Step through ``blocks`` of the union draw, (R, w, U, N, k) increments
    of w consecutive windows of U substeps.  Per window, each entry
    [advance, X, V, h, eps, cuts] of ``systems`` (X and V updated in place;
    V and eps None for the limit) is advanced with ``advance`` by steps of
    its own ``h``: over the window's substeps, or, with ``cuts``, over their
    sums on its coarser grid (``driver.grid_increments``).  Guards V after
    every step and X after every window; calls ``on_step(s, V)`` after step
    s (from 1) of each system with a V, ``on_window(j, systems)`` after
    window j.  The one runner (``_run_replicas``) marches each replica batch of every
    batched run through it; the one-step functions march one increment.

    A block is let go before the next one is drawn, so a streamed run holds
    one block at a time, provided ``blocks`` keeps no reference to what it
    yielded: ``map`` keeps none, a generator expression keeps its loop
    variable while it draws the next block.
    """
    j = 0
    done = [0] * len(systems)   # steps of each system so far
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            for w in range(block.shape[1]):
                for i, system in enumerate(systems):
                    advance, X, V, h, eps, cuts = system
                    steps = block[:, w] if cuts is None else grid_increments(block[:, w], cuts)
                    for s in range(steps.shape[1]):
                        X, V = advance(model, X, V, h, eps, steps[:, s])
                        if V is not None:
                            _guard(V, "velocity")
                            if on_step is not None:
                                on_step(done[i] + s + 1, V)
                    done[i] += steps.shape[1]
                    _guard(X, "position" if V is not None else "limit position")
                    system[1:3] = X, V
                if on_window is not None:
                    on_window(j, systems)
                j += 1
            block = steps = None   # no view of the block outlives it


# --- public one-step operations ----------------------------------------------


def _check_increment(dw, n_particles, model) -> np.ndarray:
    noise_dim = instance(model, SystemModel, "model").noise_dim
    try:
        dw = np.asarray(dw, dtype=float)
    except (TypeError, ValueError):   # a string, a ragged list
        raise ValidationError("increment must be an array of numbers") from None
    if dw.shape != (n_particles, noise_dim):
        raise ValidationError(
            f"increment must have shape ({n_particles}, {noise_dim}), got {dw.shape}"
        )
    return dw


def _step_full(ens, model, delta, dw, scheme, kappa=DEFAULT_KAPPA):
    advance = _full_kernel(scheme, ens.eps, delta, kappa)
    dw = _check_increment(dw, ens.x.shape[0], model)
    system = [advance, ens.x[None], ens.v[None], delta, ens.eps, None]
    _march(model, [dw[None, None, None]], [system])
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
    if real(delta, "delta") < 0.0:
        raise ValidationError("delta must be nonnegative")
    if delta == 0.0:
        _check_increment(dw, ens.x.shape[0], model)
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
    real(Delta, "Delta", positive=True)
    dw = _check_increment(dw, ens.x.shape[0], model)
    system = [_advance_limit_em, ens.x[None], None, Delta, None, None]
    _march(model, [dw[None, None, None]], [system])
    return ParticleEnsembleLimit(ens.t + Delta, system[1][0])


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
    """big/small, a positive integer to STEP_RTOL, else GridMismatch; a
    non-number or a bool is ValidationError."""
    if any(isinstance(v, (bool, np.bool_)) for v in (big, small)):
        raise ValidationError(f"{what}: {big!r} and {small!r} must be numbers, not bools")
    try:
        if not 0.0 < small < np.inf:
            raise GridMismatch(f"{what}: the step {small} is not positive and finite")
        ratio = big / small
    except (TypeError, OverflowError):   # a string or None; an integer beyond the float range
        raise ValidationError(f"{what}: {big!r} and {small!r} must be numbers in the float range") from None
    m = int(round(ratio)) if np.isfinite(ratio) else 0
    if m < 1 or abs(ratio - m) > STEP_RTOL * m:
        raise GridMismatch(f"{what} = {ratio} is not a positive integer")
    return m


def _run_replicas(
    model: SystemModel, eps_values, deltas, T: float, Delta: float, n_particles: int,
    replicas, seed: int, x0, v0, scheme: str = SCHEME_EXPLICIT,
    kappa: float = DEFAULT_KAPPA, *, limit: bool = True, on_step=None, on_window=None,
) -> np.ndarray:
    """The one runner of batched runs: for each replica id of ``replicas``, the
    mass-eps system at each eps_values[i] on the fast step deltas[i] and, with
    ``limit``, the limit system on the coarse step ``Delta``, from (x0, v0) to
    T on one Brownian path.

    Checks the steps, grids and start states and makes the result,
    (len(eps_values), len(replicas)) zeros, before any batch.  Each batch of
    ``_replica_batches`` draws once, on the union of the fast grids and, with
    ``limit``, the limit's, one step a window (``NoiseDriver.union``), and
    marches a system per grid, the limit last.  With ``limit`` the result
    holds per eps and replica the sup over the coarse grid of the
    worst-particle squared distance to the limit; without it (one eps,
    ``Delta`` its fast step) it is the callbacks' to fill, and a block is
    one window.  ``on_step(rows, s, V)`` and ``on_window(rows, j, systems)`` are
    ``_march``'s callbacks with the batch's rows of the result first, called
    on the start state too, at step 0 and window -1.
    """
    instance(model, SystemModel, "model")
    advances = [_full_kernel(scheme, eps, delta, kappa) for eps, delta in zip(eps_values, deltas)]
    n_windows = _ratio_int(T, Delta, "T/Delta")
    ms = [_ratio_int(Delta, delta, "Delta/delta") for delta in deltas]
    x_init = _state_array(x0, n_particles, model.dim, "x0")
    v_init = _state_array(v0, n_particles, model.dim, "v0")
    result = _zeros((len(eps_values), len(replicas)), "replicas")
    noise, cuts = NoiseDriver.union(seed, Delta, ms + [1] if limit else ms)

    for batch in _replica_batches(model, len(replicas), n_particles):
        rows = result[:, batch.start:batch.stop]   # a view; a range would index a copy
        R = len(batch)
        systems = [[advance, _start(x_init, R, "x0"), _start(v_init, R, "v0"), delta, eps, c]
                   for advance, eps, delta, c in zip(advances, eps_values, deltas, cuts)]
        if limit:
            x_limit = _start(x_init, R, "x0")
            systems.append([_advance_limit_em, x_limit, None, Delta, None, cuts[-1]])
        draws = noise.blocks(replicas[batch.start:batch.stop], n_particles,
                             model.noise_dim, n_windows)
        shape = (R, -1, noise.m_substeps) if limit else (R, 1, -1)
        blocks = map(lambda draw: draw.reshape(shape + draw.shape[2:]), draws)

        def window(j, systems):
            if limit:   # zip stops at the last eps: the limit is the last system
                XL = systems[-1][1]
                for row, (_, X, *_) in zip(rows, systems):
                    np.maximum(row, np.max(np.sum((X - XL) ** 2, axis=-1), axis=-1), out=row)
            if on_window is not None:
                on_window(rows, j, systems)

        step = None if on_step is None else functools.partial(on_step, rows)
        for _, _, V, *_ in systems[:len(deltas)] if step else ():
            step(0, V)
        window(-1, systems)
        _march(model, blocks, systems, on_step=step, on_window=window)
    return result


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
    the coarse grid driven by the left-to-right window sums of the same
    increments; returns
    the sup over coarse grid points of the worst-particle squared distance,
    and with ``record_paths`` both trajectories on the coarse grid.
    """
    rec = None

    def record(rows, j, systems):
        nonlocal rec
        (_, X, V, *_), (_, XL, *_) = systems
        if rec is None:   # on the start state, which the runner has checked
            rec = _zeros((3, round(T / Delta) + 1) + XL.shape[1:], "paths")
        rec[:, j + 1] = X[0], V[0], XL[0]   # x_full, v_full, x_limit

    sup = _run_replicas(
        model, [eps], [delta], T, Delta, n_particles, [replica_id], seed, x0, v0,
        scheme, kappa, on_window=record if record_paths else None,
    )
    paths = None if rec is None else PathRecord(np.arange(rec.shape[1]) * Delta, *rec)
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
    """Limit-system trajectory on its own grid: (n_coarse + 1, N, d), a run
    of no mass-eps system, whose noise is one substep of ``Delta`` a window."""
    path = None

    def record(rows, j, systems):
        nonlocal path
        (_, XL, *_), = systems
        if path is None:   # on the start state, which the runner has checked
            path = _zeros((round(T / Delta) + 1,) + XL.shape[1:], "limit path")
        path[j + 1] = XL[0]

    _run_replicas(model, [], [], T, Delta, n_particles, [replica_id], seed, x0, 0.0,
                  on_window=record)
    return path


def write_path_csv(fileobj, paths: PathRecord, replica_id: int):
    """Dump a coupled trajectory: one row per (time, particle, component)."""
    n_times, n_particles, d = instance(paths, PathRecord, "paths").x_full.shape
    fileobj.write("t,replica,particle,component,x_eps,v_eps,x_limit\n")
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

    A run of the one runner (``_run_replicas``) on one grid, ``Delta =
    delta``, with the limit off.  Each batch's per-time records are folded
    into two running sums per record time, strictly left to right in replica
    order, ((c + z_0) + z_1) + ..., so no batch size moves a byte, and the
    record memory is 2 x n_rec values, whatever the replica count or batch
    size.

    The sup behind ``mean_sup_ev4`` is kept squared, |eps v|^2 summed as
    ``np.linalg.norm`` sums it, updated in place, and its square root is
    taken once at the end: sqrt is correctly rounded and monotone, so the
    sqrt of the max is the max of the sqrts bit for bit, and no step pays
    for a norm."""
    integer(replicas, "diagnostics replicas", 2)
    integer(n_record, "n_record", 1)
    rec_every, z_sum, z_sq_sum = 1, None, None   # step 0 is a record step whatever the grid

    def on_step(rows, s, V):   # rows[0]: the running sup of |eps v|^2 per replica
        nonlocal rec_every, z_sum, z_sq_sum
        ev = eps * V
        sq = np.add.reduce(ev * ev, axis=-1)   # np.linalg.norm's sum, before its sqrt
        np.maximum(rows[0], sq.max(axis=-1), out=rows[0])
        if s % rec_every == 0:
            if z_sum is None:   # on the start state, whose T/delta the runner has checked
                n_steps = round(T / delta)
                rec_every = max(1, n_steps // n_record)
                z_sum, z_sq_sum = np.zeros((2, n_steps // rec_every + 1))
            j = s // rec_every
            z = eps * np.mean(np.sum(V * V, axis=-1), axis=-1)
            # add.accumulate is a strict left fold, unlike the pairwise sum
            z_sum[j] = np.add.accumulate(np.concatenate(([z_sum[j]], z)))[-1]
            z_sq_sum[j] = np.add.accumulate(np.concatenate(([z_sq_sum[j]], z * z)))[-1]

    sup_sq = _run_replicas(
        model, [eps], [delta], T, delta, n_particles, range(replicas), seed, x0, v0,
        scheme, kappa, limit=False, on_step=on_step,
    )[0]
    sup4 = np.sqrt(sup_sq) ** 4
    mean_curve = z_sum / replicas
    j_star = int(np.argmax(mean_curve))
    var = (z_sq_sum[j_star] - replicas * mean_curve[j_star] ** 2) / (replicas - 1)
    return VelocityDiagnostics(
        sup_ev2=float(mean_curve[j_star]),
        sup_ev2_stderr=float(np.sqrt(max(var, 0.0) / replicas)),
        sup_ev2_time=float(j_star * rec_every * delta),
        mean_sup_ev4=float(np.mean(sup4)),
        mean_sup_ev4_stderr=float(np.std(sup4, ddof=1) / np.sqrt(replicas)),
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
    """State box, pair counts and seed for assumption probing; the box, the
    counts and the seed are checked here, before any probe."""

    lo: float = -2.0
    hi: float = 2.0
    n_states: int = 64
    n_measures: int = 4
    n_pairs: int = 64
    seed: int = 0

    def __post_init__(self):
        if not real(self.lo, "lo") <= real(self.hi, "hi"):
            raise ValidationError(f"the probe box needs lo <= hi, got lo = {self.lo}, hi = {self.hi}")
        integer(self.n_states, "n_states", 1)
        integer(self.n_measures, "n_measures", 1)
        integer(self.n_pairs, "n_pairs", 0)
        integer(self.seed, "seed", 0)


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
    ``*_field`` calls of the integrators, the derivatives laid out in the
    dense form (``SystemModel.dense_derivative``) before their norms.
    """
    d = instance(model, SystemModel, "model").dim
    rng = np.random.default_rng(instance(probe, ProbeConfig, "probe").seed)
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
        ("friction_dx", lambda X, S: model.dense_derivative(model.friction_dx_field(X, S), 2), denom),
    ):
        f = field_at(X12, S12)
        ratios[name] = max([0.0] + [
            np.linalg.norm((f[p] - f[P + p]).reshape(-1)) / den[p] for p in np.flatnonzero(den)
        ])
    dmu = model.dense_derivative(model.friction_dmu_field(x1, samples[m1], y), 3)
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
