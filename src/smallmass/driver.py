"""Deterministic keyed Brownian increments for synchronously coupled runs.

Each (replica, particle, component) triple owns an independent counter-based
stream seeded from the master seed, so increment sequences are reproducible
regardless of execution order or thread count.  Coarse-grid increments are
defined as the window sums of the fast-grid increments, which makes the
fast/coarse coupling exact by construction.

Long runs are drawn in blocks of whole coarse windows: each stream's
generator stays alive from one block to the next, and consecutive pieces of a
Philox stream are bit-identical to one draw of their total length, so the
block size changes memory, never values.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch, ValidationError

# Bytes of fast increments drawn at a time by ``NoiseDriver.blocks``.  Each
# block costs one extra call per stream, about 2 us, so the budget is large
# enough for that to vanish next to the draws and small enough that a run's
# increments no longer set its peak memory.
BLOCK_BYTES = 16 * 2**20


class NoiseDriver:
    """Gaussian increment source on a fast grid of step ``delta`` with a
    coarse grid of step ``m_substeps * delta``.

    ``blocks`` streams a run's increments: it holds one block of at most
    ``BLOCK_BYTES`` of fast increments (never less than one window), so the
    memory of a run's noise is bounded by that budget, not by ``T/delta``.
    ``fast_increments_batch`` alone returns the whole stretch it is asked for.
    """

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
        self, replicas, n_particles: int, n_components: int, n_steps: int,
        live=None,
    ) -> np.ndarray:
        """Stacked increments for several replicas: (R, n_steps, P, C).

        Each call starts the keyed streams afresh, unless it is handed a list
        ``live``: an empty one is filled with the generators the call starts,
        a filled one is drawn on from where the previous call left it.
        Consecutive calls on one ``live`` list give consecutive pieces of the
        same streams.
        """
        replicas = [int(r) for r in replicas]
        resume = iter(live) if live else None
        out = np.empty((len(replicas), n_steps, n_particles, n_components))
        for ri, replica in enumerate(replicas):
            for p in range(n_particles):
                for c in range(n_components):
                    if resume is not None:
                        gen = next(resume)
                    else:
                        ss = np.random.SeedSequence(
                            entropy=self.master_seed, spawn_key=(replica, p, c)
                        )
                        gen = np.random.Generator(np.random.Philox(ss))
                        if live is not None:
                            live.append(gen)
                    out[ri, :, p, c] = gen.standard_normal(n_steps)
        out *= np.sqrt(self.delta)
        return out

    def blocks(self, replicas, n_particles: int, n_components: int, n_windows: int):
        """Fast increments of ``n_windows`` coarse windows, streamed: yields
        (R, w * m_substeps, P, C) arrays for consecutive runs of w whole
        windows, w as large as ``BLOCK_BYTES`` allows (at least 1).  A run
        that fits into one block is drawn in one call and keeps no
        generator alive."""
        replicas = list(replicas)
        window_bytes = len(replicas) * n_particles * n_components * self.m_substeps * 8
        per_block = max(1, min(n_windows, BLOCK_BYTES // max(window_bytes, 1)))
        live = [] if per_block < n_windows else None
        for start in range(0, n_windows, per_block):
            n_steps = min(per_block, n_windows - start) * self.m_substeps
            yield self.fast_increments_batch(
                replicas, n_particles, n_components, n_steps, live
            )

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
