"""Dense matrix kernels for small systems.

Matrix exponential, smallest eigenvalue of the symmetric part, Lyapunov and
Sylvester solvers, and quadrature evaluations of the corresponding semigroup
integral representations.  Everything here is written for the d <= 64
regime.

The kernels take a stack of matrices (..., d, d) and give the same bits as
its matrices one at a time: ``expm``, ``min_sym_eig_batch`` and the one
Lyapunov/Sylvester kernel, the vectorized d^2 x d^2 Kronecker system solved
by LAPACK (``lyapunov_batch``/``sylvester_batch``, O(d^6) per matrix).  Stack
kernels do no checks; ``expm`` alone checks the shape and finiteness of every
matrix.  The point functions accept one square matrix and check it:
``min_sym_eig`` and the point solvers ``solve_lyapunov``/``solve_sylvester``
run a kernel on a stack of one (the solvers also reject a numerically
singular operator by its singular values), and the quadrature oracles
evaluate each panel's Gauss nodes as one stack of exponentials.

All functions are pure; none keeps state.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .errors import (
    IllConditionedWarning,
    NonFinite,
    SingularSystem,
    SpectrumOverlap,
    ToleranceNotMet,
    UnstableFriction,
    ValidationError,
)

# Smallest admissible eigenvalue of the symmetric part of a friction matrix.
STABILITY_EPS = 1e-12

_TAYLOR_TERMS = 16
_TAYLOR_RADIUS = 0.25
# Point solvers: SingularSystem below this smallest/largest singular-value
# ratio of the Kronecker operator, IllConditionedWarning above this condition
# number.
_PIVOT_RTOL = 1e-14
_PIVOT_RATIO_WARN = 1e12


def _as_stack(M, name: str) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ValidationError(f"{name} must be a stack of square matrices, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFinite(f"{name} contains NaN or Inf")
    return A


def _as_square(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {A.shape}")
    return _as_stack(A, name)


def expm(M) -> np.ndarray:
    """Matrix exponential of one matrix or of a stack (..., d, d), by scaling
    and squaring around a truncated series.

    Each matrix is scaled below norm 1/4 by its own power of two, a 16-term
    Taylor polynomial is evaluated in Horner form on the whole stack, and each
    matrix is squared back up its own number of times, so a stack gives the
    same bits as its matrices one at a time.
    """
    A = _as_stack(M, "M")
    d = A.shape[-1]
    if d == 1:
        return np.exp(A)
    flat = A.reshape(-1, d, d)
    norm = np.abs(flat).sum(axis=-1).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norm, _TAYLOR_RADIUS) / _TAYLOR_RADIUS)).astype(int)
    flat = flat / (2.0 ** squarings)[:, None, None]
    ident = np.eye(d)
    E = np.broadcast_to(ident, flat.shape).copy()
    for j in range(_TAYLOR_TERMS, 0, -1):
        E = ident + (flat @ E) / j
    for k in range(squarings.max(initial=0)):
        more = squarings > k
        E[more] = E[more] @ E[more]
    return E.reshape(A.shape)


def min_sym_eig_batch(Ms: np.ndarray) -> np.ndarray:
    """Smallest symmetric-part eigenvalue of each matrix of a stack (..., d, d); no checks."""
    sym = 0.5 * (Ms + np.swapaxes(Ms, -1, -2))
    return np.linalg.eigvalsh(sym)[..., 0]


def min_sym_eig(M) -> float:
    """Smallest eigenvalue of the symmetric part (M + M^T)/2."""
    return float(min_sym_eig_batch(_as_square(M, "M")[None])[0])


def _check_same_dim(*mats: np.ndarray) -> int:
    d = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != d:
            raise ValidationError("operands must share one dimension")
    return d


def _is_symmetric(Q: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(Q).max()))
    return float(np.abs(Q - Q.T).max()) <= 1e-12 * scale


def _check_conditioning(M: np.ndarray):
    """Reject or flag a Kronecker operator by the spread of its singular values."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] < _PIVOT_RTOL * sv[0]:
        raise SingularSystem(
            f"smallest singular value {sv[-1]:.3e} below {_PIVOT_RTOL:.0e} "
            f"times the largest {sv[0]:.3e}"
        )
    if sv[0] > _PIVOT_RATIO_WARN * sv[-1]:
        warnings.warn(
            f"condition number {sv[0] / sv[-1]:.3e} exceeds {_PIVOT_RATIO_WARN:.0e}",
            IllConditionedWarning,
            stacklevel=3,
        )


def solve_lyapunov(gamma, Q) -> np.ndarray:
    """Solve gamma J + J gamma^T = Q as ``lyapunov_batch`` on a stack of one.

    Requires the symmetric part of gamma to be positive definite; the result
    is symmetrized when Q is symmetric.
    """
    g = _as_square(gamma, "gamma")
    Qm = _as_square(Q, "Q")
    _check_same_dim(g, Qm)
    if min_sym_eig(g) <= STABILITY_EPS:
        raise UnstableFriction("symmetric part of gamma is not positive definite")
    _check_conditioning(_lyapunov_operator(g))
    J = lyapunov_batch(g[None], Qm[None])[0]
    if _is_symmetric(Qm):
        J = 0.5 * (J + J.T)
    return J


def solve_sylvester(A, B, C) -> np.ndarray:
    """Solve A Y - Y B = C as ``sylvester_batch`` on a stack of one.

    The spectra of A and B must be separated by the imaginary axis: the
    symmetric parts of -A and B must both be positive definite.
    """
    Am = _as_square(A, "A")
    Bm = _as_square(B, "B")
    Cm = _as_square(C, "C")
    _check_same_dim(Am, Bm, Cm)
    if min_sym_eig(-Am) <= STABILITY_EPS or min_sym_eig(Bm) <= STABILITY_EPS:
        raise SpectrumOverlap(
            "require sym(-A) and sym(B) positive definite for a unique solution"
        )
    _check_conditioning(_sylvester_operator(Am, Bm))
    return sylvester_batch(Am[None], Bm[None], Cm[None])[0]


@lru_cache(maxsize=8)
def _gauss_nodes(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panel_quadrature(integrand, upper: float, panels: int, order: int, shape) -> np.ndarray:
    nodes, weights = _gauss_nodes(order)
    edges = np.linspace(0.0, upper, panels + 1)
    total = np.zeros(shape)
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        for w, value in zip(weights, integrand(mid + half * nodes)):
            total += (half * w) * value
    return total


def _refine_quadrature(integrand, upper, tol, shape, max_panels, order=12):
    panels = 4
    prev = _panel_quadrature(integrand, upper, panels, order, shape)
    while panels <= max_panels:
        panels *= 2
        cur = _panel_quadrature(integrand, upper, panels, order, shape)
        if np.linalg.norm(cur - prev) <= tol:
            return cur
        prev = cur
    raise ToleranceNotMet(
        f"panel refinement stalled at {panels} panels without reaching {tol:.1e}"
    )


def lyapunov_by_quadrature(gamma, Q, tol: float, max_panels: int = 1024) -> np.ndarray:
    """Evaluate J = int_0^inf e^{-gamma y} Q e^{-gamma^T y} dy numerically.

    The improper integral is truncated at Y* = ln(|Q| / (tol c)) / (2c) with
    c the smallest symmetric-part eigenvalue of gamma (the semigroup decays
    like e^{-cy}), then composite fixed-order Gauss panels are doubled until
    two refinements differ by at most ``tol``.
    """
    g = _as_square(gamma, "gamma")
    Qm = _as_square(Q, "Q")
    d = _check_same_dim(g, Qm)
    c = min_sym_eig(g)
    if c <= STABILITY_EPS:
        raise UnstableFriction("symmetric part of gamma is not positive definite")
    qnorm = float(np.linalg.norm(Qm))
    if qnorm == 0.0:
        return np.zeros((d, d))
    upper = max(np.log(qnorm / (tol * c)) / (2.0 * c), 1e-2 / c)

    def integrand(ys: np.ndarray) -> np.ndarray:
        E = expm(-g * ys[:, None, None])
        return E @ Qm @ np.swapaxes(E, -1, -2)

    J = _refine_quadrature(integrand, upper, tol, (d, d), max_panels)
    if _is_symmetric(Qm):
        J = 0.5 * (J + J.T)
    return J


def sylvester_by_quadrature(A, B, C, tol: float, max_panels: int = 1024) -> np.ndarray:
    """Evaluate Y = -int_0^inf e^{A y} C e^{-B y} dy numerically.

    Truncation uses the decay rate c = min(min_sym_eig(-A), min_sym_eig(B));
    panel refinement as in ``lyapunov_by_quadrature``.
    """
    Am = _as_square(A, "A")
    Bm = _as_square(B, "B")
    Cm = _as_square(C, "C")
    d = _check_same_dim(Am, Bm, Cm)
    c = min(min_sym_eig(-Am), min_sym_eig(Bm))
    if c <= STABILITY_EPS:
        raise SpectrumOverlap(
            "require sym(-A) and sym(B) positive definite for a convergent integral"
        )
    cnorm = float(np.linalg.norm(Cm))
    if cnorm == 0.0:
        return np.zeros((d, d))
    upper = max(np.log(cnorm / (tol * c)) / (2.0 * c), 1e-2 / c)

    def integrand(ys: np.ndarray) -> np.ndarray:
        ys = ys[:, None, None]
        return expm(Am * ys) @ Cm @ expm(-Bm * ys)

    return -_refine_quadrature(integrand, upper, tol, (d, d), max_panels)


# --- the Kronecker kernel -----------------------------------------------------
#
# Every Lyapunov and Sylvester solve in the package goes through here: the
# d^2 x d^2 operator is assembled for a whole stack of matrices and handed to
# LAPACK's batched solver (plain division for d = 1).  The stacked solvers do
# no checks; callers have checked stability already.

def _kron_last(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    p, q = A.shape[-2:]
    r, s = B.shape[-2:]
    out = A[..., :, None, :, None] * B[..., None, :, None, :]
    return out.reshape(*A.shape[:-2], p * r, q * s)


def _lyapunov_operator(gammas: np.ndarray) -> np.ndarray:
    ident = np.broadcast_to(np.eye(gammas.shape[-1]), gammas.shape)
    return _kron_last(gammas, ident) + _kron_last(ident, gammas)


def _sylvester_operator(As: np.ndarray, Bs: np.ndarray) -> np.ndarray:
    ident = np.broadcast_to(np.eye(As.shape[-1]), As.shape)
    return _kron_last(As, ident) - _kron_last(ident, np.swapaxes(Bs, -1, -2))


def _kron_solve(M: np.ndarray, Cs: np.ndarray) -> np.ndarray:
    d = Cs.shape[-1]
    rhs = Cs.reshape(*Cs.shape[:-2], d * d, 1)
    return np.linalg.solve(M, rhs).reshape(Cs.shape)


def lyapunov_batch(gammas: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Solve gamma J + J gamma^T = Q for stacks of matrices (..., d, d)."""
    if gammas.shape[-1] == 1:
        return Qs / (2.0 * gammas)
    return _kron_solve(_lyapunov_operator(gammas), Qs)


def sylvester_batch(As: np.ndarray, Bs: np.ndarray, Cs: np.ndarray) -> np.ndarray:
    """Solve A Y - Y B = C for stacks of matrices (..., d, d)."""
    if As.shape[-1] == 1:
        return Cs / (As - Bs)
    return _kron_solve(_sylvester_operator(As, Bs), Cs)
