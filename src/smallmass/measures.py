"""Empirical measures, moments, and exact Wasserstein-2 distances.

Only equal-count, uniform-weight atomic measures are supported: every
internal use compares one particle ensemble against another.  The general
distance goes through an exact minimum-cost perfect matching (shortest
augmenting paths with potentials, deterministic lowest-index tie-breaking);
in one dimension the sorted coupling is optimal and much cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CountMismatch,
    DimensionMismatch,
    NonFinite,
    SizeLimitExceeded,
    ValidationError,
    floats,
    instance,
)

ASSIGNMENT_SIZE_LIMIT = 512


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform-weight atomic measure on N points in R^d."""

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = floats(self.samples, "samples")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValidationError(
                f"samples must be an (N, d) array with N >= 1 and d >= 1, "
                f"got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise NonFinite("measure samples contain NaN or Inf")
        object.__setattr__(self, "samples", pts)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def size(self) -> int:
        return self.samples.shape[0]


def second_moment(mu: EmpiricalMeasure) -> float:
    """(1/N) sum_i |x_i|^2, the square-integrability functional."""
    return float(np.mean(np.sum(instance(mu, EmpiricalMeasure, "mu").samples ** 2, axis=1)))


def _check_pair(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    if instance(mu, EmpiricalMeasure, "mu").dim != instance(nu, EmpiricalMeasure, "nu").dim:
        raise DimensionMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    if mu.size != nu.size:
        raise CountMismatch(f"sample counts differ: {mu.size} vs {nu.size}")


def wasserstein2_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """W2 between equal-count one-dimensional empirical measures.

    The monotone (sorted) coupling is optimal in one dimension.
    """
    _check_pair(mu, nu)
    if mu.dim != 1:
        raise DimensionMismatch(f"1-d fast path requires d = 1, got d = {mu.dim}")
    xs = np.sort(mu.samples[:, 0])
    ys = np.sort(nu.samples[:, 0])
    return float(np.sqrt(np.mean((xs - ys) ** 2)))


def wasserstein2_assignment(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact W2 via minimum-cost perfect matching on squared distances."""
    _check_pair(mu, nu)
    if mu.size > ASSIGNMENT_SIZE_LIMIT:
        raise SizeLimitExceeded(
            f"assignment path limited to N <= {ASSIGNMENT_SIZE_LIMIT}, got {mu.size}"
        )
    diff = mu.samples[:, None, :] - nu.samples[None, :, :]
    cost = np.sum(diff * diff, axis=2)
    total = _assignment_cost(cost)
    return float(np.sqrt(total / mu.size))


def _assignment_cost(cost: np.ndarray) -> float:
    """Minimum total cost of a perfect matching on a square cost matrix.

    Shortest augmenting paths with dual potentials; ties broken toward the
    lowest column index so results are reproducible.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_row = np.zeros(n + 1, dtype=np.intp)  # column j -> assigned row (1-based)
    for i in range(1, n + 1):
        match_row[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        way = np.zeros(n + 1, dtype=np.intp)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            free = ~used[1:]
            reduced = cost[i0 - 1, :] - u[i0] - v[1:]
            better = free & (reduced < minv[1:])
            minv[1:][better] = reduced[better]
            way[1:][better] = j0
            masked = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            used_idx = np.flatnonzero(used)
            u[match_row[used_idx]] += delta
            v[used_idx] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    cols = np.arange(1, n + 1)
    return float(np.sum(cost[match_row[cols] - 1, cols - 1]))
