"""Dense matrix kernels for small systems.

Matrix exponential, inverse, smallest eigenvalue of the symmetric part, and
one matrix equation, G1 J + J G2^T = Q, in the form the limit drifts use it:
the Lyapunov equation gamma J + J gamma^T = Q is G1 = G2 = gamma, and the
Sylvester equation gamma(x) J~ + J~ gamma(y)^T = sigma(x) sigma(y)^T is
G1 = gamma(x), G2 = gamma(y).  The point solvers take a Sylvester problem as
A Y - Y B = C and map it onto the equation as (G1, G2, Q) = (-A, B^T, -C).
Everything here is written for the d <= MAX_DIM = 64 regime.

The kernels take a stack of matrices (..., d, d): ``expm``,
``min_sym_eig_batch`` and ``inv_batch`` give the same bits as its matrices one
at a time, and at d = 1 all three are plain arithmetic.  The stack solvers
``lyapunov_batch``/``sylvester_batch`` solve the one equation on broadcastable
stacks by diagonalization (Bartels & Stewart, CACM 15(9), 1972):
G1 = V1 L1 V1^-1 and G2 = V2 L2 V2^-1, each factored once on the stack as
passed (gamma(x) as (B, N, 1, d, d) and gamma(y) as (B, 1, n, d, d), so N + n
eigen-decompositions per ensemble for N n solves), and
J = V1 [(V1^-1 Q V2^-T) / (l1_a + l2_b)] V2^T, with the real part taken when
the eigenpairs are complex: O(d^3) per solve.  When an eigenvector matrix of
either stack is singular or has ||V||_F ||V^-1||_F above _SPECTRAL_COND_MAX
(a defective or nearly defective G, such as [[2, 1], [0, 2]]), the whole call
falls back to the vectorized d^2 x d^2 Kronecker system G1 (x) I + I (x) G2
solved by LAPACK (O(d^6) per solve); at d = 1 both are Q / (G1 + G2).  Stack
kernels do no checks; ``expm`` alone checks the shape and finiteness of every
matrix.  The point functions accept square matrices and check them:
``min_sym_eig``; the point solvers ``solve_lyapunov``/``solve_sylvester``,
which stay on the Kronecker system and reject a numerically singular operator
by its singular values; and the quadrature oracles, which evaluate the one
semigroup integral int_0^inf e^{-G1 y} Q e^{-G2^T y} dy with each panel's
Gauss nodes as one stack of exponentials.  Solvers and oracles take
d <= MAX_DIM.

All functions are pure; none keeps state.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import (
    IllConditionedWarning,
    NonFinite,
    SingularSystem,
    SizeLimitExceeded,
    SpectrumOverlap,
    ToleranceNotMet,
    UnstableFriction,
    ValidationError,
)

# Smallest admissible eigenvalue of the symmetric part of a friction matrix.
STABILITY_EPS = 1e-12
# Largest state (and noise) dimension of a model.
MAX_DIM = 64

_TAYLOR_TERMS = 16
_TAYLOR_RADIUS = 0.25
# Point solvers: SingularSystem below this smallest/largest singular-value
# ratio of the Kronecker operator, IllConditionedWarning above this condition
# number.
_PIVOT_RTOL = 1e-14
_PIVOT_RATIO_WARN = 1e12
# Stack solver: largest eigenvector condition number ||V||_F ||V^-1||_F of G1
# or G2 that the spectral solve accepts; above it the call takes the Kronecker
# solve.  The spectral solve's error grows about like 1e-16 times this number,
# so the two agree to about 1e-13 relative.
_SPECTRAL_COND_MAX = 1e3


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
    """Smallest symmetric-part eigenvalue of each matrix of a stack (..., d, d); no checks.

    At d = 1 the eigenvalue is the symmetric part's one entry, which is what
    LAPACK returns for a 1 x 1 matrix."""
    sym = 0.5 * (Ms + np.swapaxes(Ms, -1, -2))
    if sym.shape[-1] == 1:
        return sym[..., 0, 0]
    return np.linalg.eigvalsh(sym)[..., 0]


def inv_batch(G: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a stack (..., d, d); no checks.

    At d = 1 it is 1 / G, the bits LAPACK gives for a 1 x 1 matrix: a zero
    entry raises LinAlgError and a subnormal one reads inf without a warning,
    as there."""
    if G.shape[-1] > 1:
        return np.linalg.inv(G)
    if not G.all():
        raise np.linalg.LinAlgError("Singular matrix")
    with np.errstate(over="ignore"):
        return 1.0 / G


def min_sym_eig(M) -> float:
    """Smallest eigenvalue of the symmetric part (M + M^T)/2."""
    return float(min_sym_eig_batch(_as_square(M, "M")[None])[0])


# --- the one equation: G1 J + J G2^T = Q ---------------------------------------
#
# ``_solve`` assembles the Kronecker operator for broadcastable stacks and
# hands it to LAPACK's batched solver (plain division for d = 1); the point
# solvers and the stack solvers' fallback use it.  ``_stacked_solve`` is the
# spectral solve behind the stack solvers.  Neither checks anything; callers
# have checked stability already.

def _operator(G1: np.ndarray, G2: np.ndarray) -> np.ndarray:
    """G1 (x) I + I (x) G2: the d^2 x d^2 matrix that maps the rows of J, laid
    end to end, to those of G1 J + J G2^T."""
    # entry [..., i, k, j, l] is G1_ij delta_kl + delta_ij G2_kl
    d = G1.shape[-1]
    ident = np.eye(d)
    M = (G1[..., :, None, :, None] * ident[:, None, :]
         + ident[:, None, :, None] * G2[..., None, :, None, :])
    return M.reshape(*M.shape[:-4], d * d, d * d)


def _solve(G1: np.ndarray, G2: np.ndarray, Q: np.ndarray) -> np.ndarray:
    d = Q.shape[-1]
    if d == 1:
        return Q / (G1 + G2)
    J = np.linalg.solve(_operator(G1, G2), Q.reshape(*Q.shape[:-2], d * d, 1))
    return J.reshape(*J.shape[:-2], d, d)


def _eigenbasis(G: np.ndarray):
    """(lambda, V, V^-1) of every matrix of the stack G, or None when an
    eigenvector matrix is singular or has ||V|| ||V^-1|| above _SPECTRAL_COND_MAX."""
    try:
        lam, V = np.linalg.eig(G)
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError:   # non-finite G, or a singular V
        return None
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow reads inf
        cond = np.linalg.norm(V, axis=(-2, -1)) * np.linalg.norm(W, axis=(-2, -1))
    if not cond.max(initial=0.0) <= _SPECTRAL_COND_MAX:   # inf and NaN fall back too
        return None
    return lam, V, W


def _stacked_solve(G1: np.ndarray, G2: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The stack solver: for d > 1, J = V1 [(V1^-1 Q V2^-T) / (lambda1_a + lambda2_b)]
    V2^T with G1 and G2 diagonalized once each on the stacks as given, before
    they broadcast against each other; ``_solve`` on the whole call when either
    eigenbasis is ill-conditioned."""
    if Q.shape[-1] == 1:
        return _solve(G1, G2, Q)
    one = _eigenbasis(G1)
    two = one if G2 is G1 else _eigenbasis(G2)
    if one is None or two is None:
        return _solve(G1, G2, Q)
    (lam1, V1, W1), (lam2, V2, W2) = one, two
    Qh = W1 @ Q @ np.swapaxes(W2, -1, -2)
    Qh /= lam1[..., :, None] + lam2[..., None, :]
    J = V1 @ Qh @ np.swapaxes(V2, -1, -2)
    return J.real if np.iscomplexobj(J) else J


def lyapunov_batch(gammas: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """Solve gamma J + J gamma^T = Q for broadcastable stacks (..., d, d)."""
    return _stacked_solve(gammas, gammas, Qs)


def sylvester_batch(G1: np.ndarray, G2: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve G1 J + J G2^T = Q for broadcastable stacks (..., d, d)."""
    return _stacked_solve(G1, G2, Q)


def _equation(operands: dict, form, error: Exception):
    """(G1, G2, Q, c): the named ``operands``, finite square matrices of one
    dimension, mapped by ``form`` to the one equation, and its decay rate c, the
    smallest symmetric-part eigenvalue of G1 and G2.  Raises ``error`` unless
    c > STABILITY_EPS."""
    mats = [_as_square(m, name) for name, m in operands.items()]
    if any(m.shape != mats[0].shape for m in mats):
        raise ValidationError("operands must share one dimension")
    if mats[0].shape[-1] > MAX_DIM:   # before a d^2 x d^2 operator is built
        raise SizeLimitExceeded(f"dimension {mats[0].shape[-1]} is above {MAX_DIM}")
    G1, G2, Q = form(*mats)
    c = min(min_sym_eig(G1), min_sym_eig(G2))
    if c <= STABILITY_EPS:
        raise error
    return G1, G2, Q, c


def _lyapunov(gamma, Q):
    error = UnstableFriction("symmetric part of gamma is not positive definite")
    return _equation({"gamma": gamma, "Q": Q}, lambda g, Q: (g, g, Q), error)


def _sylvester(A, B, C, what: str):
    """A Y - Y B = C as the one equation: (G1, G2, Q) = (-A, B^T, -C)."""
    error = SpectrumOverlap(f"require sym(-A) and sym(B) positive definite for {what}")
    return _equation({"A": A, "B": B, "C": C}, lambda A, B, C: (-A, B.T, -C), error)


def _symmetrized(J: np.ndarray, Q: np.ndarray) -> np.ndarray:
    symmetric = float(np.abs(Q - Q.T).max()) <= 1e-12 * max(1.0, float(np.abs(Q).max()))
    return 0.5 * (J + J.T) if symmetric else J


def _point_solve(G1: np.ndarray, G2: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``_solve`` on one equation, after rejecting or flagging its operator by the
    spread of its singular values."""
    sv = np.linalg.svd(_operator(G1, G2), compute_uv=False)
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
    return _solve(G1, G2, Q)


def solve_lyapunov(gamma, Q) -> np.ndarray:
    """Solve gamma J + J gamma^T = Q, the one equation with G1 = G2 = gamma.

    Requires the symmetric part of gamma to be positive definite; the result
    is symmetrized when Q is symmetric.
    """
    G1, G2, Qm, _ = _lyapunov(gamma, Q)
    return _symmetrized(_point_solve(G1, G2, Qm), Qm)


def solve_sylvester(A, B, C) -> np.ndarray:
    """Solve A Y - Y B = C, the one equation with (G1, G2, Q) = (-A, B^T, -C).

    The spectra of A and B must be separated by the imaginary axis: the
    symmetric parts of -A and B must both be positive definite.
    """
    G1, G2, Qm, _ = _sylvester(A, B, C, "a unique solution")
    return _point_solve(G1, G2, Qm)


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


def _semigroup_integral(G1, G2, Q, c, tol, max_panels) -> np.ndarray:
    """J = int_0^inf e^{-G1 y} Q e^{-G2^T y} dy, the solution of G1 J + J G2^T = Q.

    The improper integral is truncated at Y* = ln(|Q| / (tol c)) / (2c), the
    semigroups decaying like e^{-cy}; then composite fixed-order Gauss panels
    are doubled until two refinements differ by at most ``tol``.  When G2 is
    G1, e^{-G2^T y} is the transpose of e^{-G1 y}: one exponential per node.
    """
    qnorm = float(np.linalg.norm(Q))
    if qnorm == 0.0:
        return np.zeros(Q.shape)
    ratio = qnorm / (tol * c) if 0.0 < tol * c < math.inf else math.inf
    upper = max(np.log(max(ratio, 1.0)) / (2.0 * c), 1e-2 / c)
    if not math.isfinite(upper):
        raise ToleranceNotMet(f"tolerance {tol:.1e} leaves the integral no finite cut-off")

    def integrand(ys: np.ndarray) -> np.ndarray:
        ys = ys[:, None, None]
        E = expm(-G1 * ys)
        F = np.swapaxes(E, -1, -2) if G2 is G1 else expm(-G2.T * ys)
        return E @ Q @ F

    return _refine_quadrature(integrand, upper, tol, Q.shape, max_panels)


def lyapunov_by_quadrature(gamma, Q, tol: float, max_panels: int = 1024) -> np.ndarray:
    """Evaluate J = int_0^inf e^{-gamma y} Q e^{-gamma^T y} dy numerically, with
    the decay rate c of the smallest symmetric-part eigenvalue of gamma."""
    G1, G2, Qm, c = _lyapunov(gamma, Q)
    return _symmetrized(_semigroup_integral(G1, G2, Qm, c, tol, max_panels), Qm)


def sylvester_by_quadrature(A, B, C, tol: float, max_panels: int = 1024) -> np.ndarray:
    """Evaluate Y = -int_0^inf e^{A y} C e^{-B y} dy numerically, with the decay
    rate c = min(min_sym_eig(-A), min_sym_eig(B))."""
    return _semigroup_integral(*_sylvester(A, B, C, "a convergent integral"), tol, max_panels)
