"""Deterministic keyed Brownian increments for synchronously coupled runs.

Each (replica, particle, component) triple owns an independent counter-based
stream seeded from the master seed, so increment sequences are reproducible
regardless of execution order or thread count.  Coarse-grid increments are
defined as the window sums of the fast-grid increments, which makes the
fast/coarse coupling exact by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch, ValidationError


class NoiseDriver:
    """Gaussian increment source on a fast grid of step ``delta`` with a
    coarse grid of step ``m_substeps * delta``."""

    def __init__(self, master_seed: int, delta: float, m_substeps: int = 1):
        if delta <= 0.0 or not np.isfinite(delta):
            raise ValidationError(f"fast step must be positive, got {delta}")
        if m_substeps < 1 or int(m_substeps) != m_substeps:
            raise GridMismatch(f"coarse step must be an integer multiple, got {m_substeps}")
        self.master_seed = int(master_seed)
        self.delta = float(delta)
        self.m_substeps = int(m_substeps)

    def fast_increments(
        self, replica: int, n_particles: int, n_components: int, n_steps: int
    ) -> np.ndarray:
        """Increments of shape (n_steps, n_particles, n_components), variance delta."""
        return self.fast_increments_batch(
            [replica], n_particles, n_components, n_steps
        )[0]

    def fast_increments_batch(
        self, replicas, n_particles: int, n_components: int, n_steps: int
    ) -> np.ndarray:
        """Stacked increments for several replicas: (R, n_steps, P, C)."""
        replicas = [int(r) for r in replicas]
        out = np.empty((len(replicas), n_steps, n_particles, n_components))
        for ri, replica in enumerate(replicas):
            for p in range(n_particles):
                for c in range(n_components):
                    ss = np.random.SeedSequence(
                        entropy=self.master_seed, spawn_key=(replica, p, c)
                    )
                    gen = np.random.Generator(np.random.Philox(ss))
                    out[ri, :, p, c] = gen.standard_normal(n_steps)
        out *= np.sqrt(self.delta)
        return out

    def coarse_from_fast(self, fast: np.ndarray) -> np.ndarray:
        """Window sums along the step axis (axis -3): (..., n_coarse, P, C).

        This is the definition of the coarse increments; the synchronous
        coupling between grids is therefore exact, not approximate.
        """
        n_steps = fast.shape[-3]
        if n_steps % self.m_substeps:
            raise GridMismatch(
                f"{n_steps} fast steps do not tile into windows of {self.m_substeps}"
            )
        n_coarse = n_steps // self.m_substeps
        shape = fast.shape[:-3] + (n_coarse, self.m_substeps) + fast.shape[-2:]
        return fast.reshape(shape).sum(axis=-3)
