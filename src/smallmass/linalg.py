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
at a time; they and ``matvec``/``matmat`` (an einsum's bits) are arithmetic on
diagonal stacks, every d = 1 one included; ``_diagonal`` alone chooses.  One
solve, ``_stacked_solve``, serves ``lyapunov_batch``/``sylvester_batch`` on
broadcastable stacks and ``solve_lyapunov``/``solve_sylvester`` on a stack of
one.  It diagonalizes (Bartels & Stewart, CACM 15(9), 1972) G1 = V1 L1 V1^-1
and G2 = V2 L2 V2^-1, each once on the stack as passed (gamma(x) as
(B, N, 1, d, d) and gamma(y) as (B, 1, n, d, d): N + n eigen-decompositions
for N n solves) or from an ``Eigenbasis`` factored once for several solves,
and J = V1 [(V1^-1 Q V2^-T) / (l1_a + l2_b)] V2^T, its real part when the
eigenpairs are complex: O(d^3) per solve.  A diagonal stack has the exact
factors (diag, I, I) and takes no eigen-decomposition, so two diagonal sides
give J = Q / (g1_a + g2_b): the bits LAPACK's eigenvectors give, which are
exactly I on a diagonal matrix, up to the sign of an exact zero in J where Q
holds a -0.0.  A matrix whose eigenvector matrix has ||V||_F ||V^-1||_F
above _SPECTRAL_COND_MAX (a defective or nearly defective G, such as
[[2, 1], [0, 2]]) is flagged, and only the pairs that touch it fall back to
the vectorized d^2 x d^2 Kronecker system G1 (x) I + I (x) G2 solved by
LAPACK (O(d^6) per solve), so each pair's bits depend on its own two
matrices; the whole call falls back only when eig or the inverse of V fails.
Stack kernels do no checks; ``expm`` alone checks the shape and
finiteness of every matrix.  The point functions accept square matrices and
check them: ``min_sym_eig``; the point solvers, which also refuse or flag an
ill-conditioned equation; and the quadrature oracles, which evaluate the one
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
# Point solvers: SingularSystem below this ratio of the decay rate 2c to
# ||G1|| + ||G2||, IllConditionedWarning above this bound on the condition
# number of G1 (x) I + I (x) G2 (``_point_solve``).
_PIVOT_RTOL = 1e-14
_PIVOT_RATIO_WARN = 1e12
# Stack solver: largest eigenvector condition number ||V||_F ||V^-1||_F of a
# matrix of G1 or G2 that the spectral solve accepts; above it the pairs that
# touch the matrix take the Kronecker solve.  The spectral solve's error grows about like 1e-16 times this number,
# so the two agree to about 1e-13 relative.
_SPECTRAL_COND_MAX = 1e3
_ZERO = np.zeros(())   # faster to add than the float 0.0
_CHAINS = {2: "...ij,...j->...i", 3: "...ij,...jk,...k->...i"}


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


def _diagonal(A: np.ndarray):
    """The diagonals (..., d) of a square stack (..., d, d) whose off-diagonal
    entries are all zero, else None: the one test that sends a stack down the
    entrywise branch of every kernel and product.  At d = 1 a view with no scan;
    above, one count of the nonzero entries (NaN counts) against the diagonals'."""
    if A.shape[-2] != A.shape[-1]:
        return None
    if A.shape[-1] == 1:
        return A[..., 0]
    diag = np.diagonal(A, axis1=-2, axis2=-1)
    return diag if np.count_nonzero(A) == np.count_nonzero(diag) else None


def _from_diagonal(v: np.ndarray) -> np.ndarray:
    """The stack (..., d, d) with diagonals v (..., d) and off-diagonal entry
    (i, j) = v_i * 0, as LAPACK's inverse of a diagonal matrix writes it: -0 in
    a negative row, NaN in an infinite one.  At d = 1 a view of v."""
    if v.shape[-1] == 1:
        return v[..., None]
    with np.errstate(invalid="ignore"):
        return v[..., :, None] * np.eye(v.shape[-1])


def matvec(*operands) -> np.ndarray:
    """A_1 ... A_p x over the last axes of broadcastable stacks: the einsum
    _CHAINS[p + 1] or, when every A_t is diagonal, the product of the
    diagonals and x left to right, as the einsum multiplies its terms, with
    its bits wherever the operands are finite."""
    product = None
    for A in operands[:-1]:
        diag = _diagonal(A)
        if diag is None:
            return np.einsum(_CHAINS[len(operands)], *operands)
        product = diag if product is None else product * diag
    product = product * operands[-1]
    product += _ZERO   # an einsum sums from +0.0: a lone -0.0 term reads +0.0
    return product


def matmat(A, B) -> np.ndarray:
    """A B over the last two axes of broadcastable stacks: "...ij,...jk->...ik",
    or the rows of B times the diagonal of a diagonal A, as ``matvec``."""
    diag = _diagonal(A)
    if diag is None:
        return np.einsum("...ij,...jk->...ik", A, B)
    product = diag[..., :, None] * B
    product += _ZERO   # as in matvec
    return product


def expm(M) -> np.ndarray:
    """Matrix exponential of one matrix or of a stack (..., d, d), by scaling
    and squaring around a truncated series.

    Each matrix is scaled below norm 1/4 by its own power of two, a 16-term
    Taylor polynomial is evaluated in Horner form on the whole stack, and each
    matrix is squared back up its own number of times, so a stack gives the
    same bits as its matrices one at a time.  A diagonal stack runs the same
    loop on its diagonals with entrywise products: every sum in a product of
    diagonal matrices has one term that is not an exact zero, so the bits are
    the matrix products' wherever the result is finite.  At d = 1 it is np.exp.
    """
    A = _as_stack(M, "M")
    d = A.shape[-1]
    if d == 1:
        return np.exp(A)
    diag = _diagonal(A)
    if diag is None:
        flat, ident, product = A.reshape(-1, d, d), np.eye(d), np.matmul
    else:   # each matrix as the column of its diagonal
        flat, ident, product = diag.reshape(-1, d, 1), 1.0, np.multiply
    norm = np.abs(flat).sum(axis=-1).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norm, _TAYLOR_RADIUS) / _TAYLOR_RADIUS)).astype(int)
    flat = flat / (2.0 ** squarings)[:, None, None]
    E = np.broadcast_to(ident, flat.shape).copy()
    for j in range(_TAYLOR_TERMS, 0, -1):
        E = ident + product(flat, E) / j
    with np.errstate(over="ignore"):   # an overflow reads inf, as in BLAS
        for k in range(squarings.max(initial=0)):
            more = squarings > k
            E[more] = product(E[more], E[more])
    return E.reshape(A.shape) if diag is None else _from_diagonal(E.reshape(A.shape[:-1]))


def min_sym_eig_batch(Ms: np.ndarray) -> np.ndarray:
    """Smallest symmetric-part eigenvalue of each matrix of a stack (..., d, d); no checks.

    On diagonal stacks, which include every d = 1 stack, it is the smallest
    diagonal entry of the symmetric part: exact, and LAPACK's bits wherever
    LAPACK does not rescale the matrix (entries between about 1e-146 and
    1e146, and finite)."""
    diag = _diagonal(Ms)
    if diag is not None:
        lam = 0.5 * (diag + diag)
        return lam[..., 0] if lam.shape[-1] == 1 else lam.min(axis=-1)
    sym = 0.5 * (Ms + np.swapaxes(Ms, -1, -2))
    return np.linalg.eigvalsh(sym)[..., 0]


def inv_batch(G: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a stack (..., d, d); no checks.

    On diagonal stacks, which include every d = 1 stack, it is 1 / diag laid
    out by ``_from_diagonal``, the bits LAPACK gives wherever 1 / diag is
    finite: a zero entry raises LinAlgError, as there.  A subnormal entry reads
    inf without a warning; above d = 1, LAPACK then also spreads NaN over the
    rows above it, as it does for a NaN entry, and here the NaN stays in its
    own row."""
    diag = _diagonal(G)
    if diag is None:
        return np.linalg.inv(G)
    if not diag.all():
        raise np.linalg.LinAlgError("Singular matrix")
    with np.errstate(over="ignore"):
        return _from_diagonal(1.0 / diag)


def min_sym_eig(M) -> float:
    """Smallest eigenvalue of the symmetric part (M + M^T)/2."""
    return float(min_sym_eig_batch(_as_square(M, "M")[None])[0])


# --- the one equation: G1 J + J G2^T = Q ---------------------------------------
#
# ``_stacked_solve`` is the spectral solve behind every solver.  ``_solve``,
# its fallback for the pairs that touch a defective friction, assembles the Kronecker operator for
# broadcastable stacks and hands it to LAPACK's batched solver.  Neither checks
# anything; callers have checked stability already.

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
    J = np.linalg.solve(_operator(G1, G2), Q.reshape(*Q.shape[:-2], d * d, 1))
    return J.reshape(*J.shape[:-2], d, d)


def _eigenbasis(G: np.ndarray):
    """(lambda, V, V^-1, bad) of every matrix of the stack G, or None when eig
    or inv raises LinAlgError.  ``bad`` flags each matrix whose ||V|| ||V^-1||
    is above _SPECTRAL_COND_MAX, its V and V^-1 replaced by I so that the
    spectral arithmetic stays finite; None when no matrix is flagged."""
    try:
        lam, V = np.linalg.eig(G)
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError:   # non-finite G, or a singular V
        return None
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow reads inf
        cond = np.linalg.norm(V, axis=(-2, -1)) * np.linalg.norm(W, axis=(-2, -1))
    bad = ~(cond <= _SPECTRAL_COND_MAX)   # inf and NaN are flagged too
    if not bad.any():
        return lam, V, W, None
    V[bad] = W[bad] = np.eye(G.shape[-1])
    return lam, V, W, bad


class Eigenbasis:
    """The factors of a stack G (..., d, d) taken once for several stack solves
    on the same matrices: ``factors`` is (lambda, V, V^-1) of G = V diag(lambda)
    V^-1 and the flags of ``_eigenbasis``; on diagonal stacks, which include
    every d = 1 stack, it is (diag, None, None, None), the exact factors
    (diag, I, I) with no products to take; None where eig or inv fails, and
    the solves take ``_solve`` whole.  One object, not a tuple of arrays,
    because ``perfbench``'s tracer counts the solves from every argument's
    shape."""

    def __init__(self, G: np.ndarray):
        diag = _diagonal(G)
        self.factors = _eigenbasis(G) if diag is None else (diag, None, None, None)


def _stacked_solve(G1, G2, Q, one=None, two=None) -> np.ndarray:
    """The stack solver: J = V1 [(V1^-1 Q V2^-T) / (lambda1_a + lambda2_b)] V2^T
    with G1 and G2 diagonalized once each on the stacks as given, before they
    broadcast against each other, or taken from their ``Eigenbasis`` ``one``
    and ``two`` when given; a diagonal side's eigenvectors are I, and its
    products are skipped, so two diagonal sides give Q / (g1_a + g2_b).
    The pairs that touch a flagged, ill-conditioned matrix of either side are
    solved again by ``_solve``, so each pair's bits depend on its own two
    matrices only; the whole call takes ``_solve`` where an eigenbasis failed."""
    one = Eigenbasis(G1) if one is None else one
    two = (one if G2 is G1 else Eigenbasis(G2)) if two is None else two
    if one.factors is None or two.factors is None:
        return _solve(G1, G2, Q)
    (lam1, V1, W1, bad1), (lam2, V2, W2, bad2) = one.factors, two.factors
    # each factor laid out as its G, which may hold it with unit axes inserted
    Qh = Q if W1 is None else W1.reshape(G1.shape) @ Q
    if W2 is not None:
        Qh = Qh @ np.swapaxes(W2.reshape(G2.shape), -1, -2)
    J = Qh / (lam1.reshape(G1.shape[:-1])[..., :, None] + lam2.reshape(G2.shape[:-1])[..., None, :])
    if V1 is not None:
        J = V1.reshape(G1.shape) @ J
    if V2 is not None:
        J = J @ np.swapaxes(V2.reshape(G2.shape), -1, -2)
    J = J.real if np.iscomplexobj(J) else J
    if bad1 is None and bad2 is None:
        return J
    pairs = np.zeros(J.shape[:-2], dtype=bool)
    for G, bad in ((G1, bad1), (G2, bad2)):
        if bad is not None:
            pairs |= bad.reshape(G.shape[:-2])
    J[pairs] = _solve(*(np.broadcast_to(M, J.shape)[pairs] for M in (G1, G2, Q)))
    return J


def lyapunov_batch(gammas: np.ndarray, Qs: np.ndarray, basis=None) -> np.ndarray:
    """Solve gamma J + J gamma^T = Q for broadcastable stacks (..., d, d);
    ``basis``, when given, is ``Eigenbasis`` of the matrices of ``gammas``."""
    return _stacked_solve(gammas, gammas, Qs, basis, basis)


def sylvester_batch(G1: np.ndarray, G2: np.ndarray, Q: np.ndarray, basis1=None, basis2=None) -> np.ndarray:
    """Solve G1 J + J G2^T = Q for broadcastable stacks (..., d, d); ``basis1``
    and ``basis2``, when given, are ``Eigenbasis`` of the matrices of G1 and G2."""
    return _stacked_solve(G1, G2, Q, basis1, basis2)


def _equation(operands: dict, form, error: Exception):
    """(G1, G2, Q, c): the named ``operands``, finite square matrices of one
    dimension, mapped by ``form`` to the one equation, and its decay rate c, the
    smallest symmetric-part eigenvalue of G1 and G2.  Raises ``error`` unless
    c > STABILITY_EPS."""
    mats = [_as_square(m, name) for name, m in operands.items()]
    if any(m.shape != mats[0].shape for m in mats):
        raise ValidationError("operands must share one dimension")
    if mats[0].shape[-1] > MAX_DIM:   # before any solve
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


def _point_solve(G1: np.ndarray, G2: np.ndarray, Q: np.ndarray, c: float) -> np.ndarray:
    """``_stacked_solve`` on a stack of one, the equation refused or flagged by
    a bound on the condition number of G1 (x) I + I (x) G2, exact for normal G1
    and G2: the operator is at most ||G1|| + ||G2||, its inverse at most 1/(2c)
    as ||e^{-G y}|| <= e^{-c y}.  Adding 0.0 makes an exact zero print unsigned."""
    scale = np.linalg.norm(G1, 2) + np.linalg.norm(G2, 2)
    if 2.0 * c < _PIVOT_RTOL * scale:
        raise SingularSystem(f"decay rate 2c = {2.0 * c:.3e} below {_PIVOT_RTOL:.0e} "
                             f"times ||G1|| + ||G2|| = {scale:.3e}")
    if scale > _PIVOT_RATIO_WARN * 2.0 * c:
        warnings.warn(f"condition number bound {scale / (2.0 * c):.3e} exceeds "
                      f"{_PIVOT_RATIO_WARN:.0e}", IllConditionedWarning, stacklevel=3)
    G = G1[None]
    return _stacked_solve(G, G if G2 is G1 else G2[None], Q[None])[0] + 0.0


def solve_lyapunov(gamma, Q) -> np.ndarray:
    """Solve gamma J + J gamma^T = Q, the one equation with G1 = G2 = gamma.

    Requires the symmetric part of gamma to be positive definite; the result
    is symmetrized when Q is symmetric.
    """
    G1, G2, Qm, c = _lyapunov(gamma, Q)
    return _symmetrized(_point_solve(G1, G2, Qm, c), Qm)


def solve_sylvester(A, B, C) -> np.ndarray:
    """Solve A Y - Y B = C, the one equation with (G1, G2, Q) = (-A, B^T, -C).

    The spectra of A and B must be separated by the imaginary axis: the
    symmetric parts of -A and B must both be positive definite.
    """
    return _point_solve(*_sylvester(A, B, C, "a unique solution"))


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
