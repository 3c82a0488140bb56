"""Deterministic keyed Brownian increments for synchronously coupled runs.

Each (replica, particle, component) triple owns an independent Philox stream:
the stream of ``SeedSequence(entropy=master_seed, spawn_key=(r, p, c))``,
so increment sequences are reproducible regardless of execution order or
thread count.  Philox is counter-based, so a stream is fully given by its
128-bit key and counter (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11): the keys of a whole draw are derived at once by a
vectorized transcription of SeedSequence's hash, and one generator draws the
streams in turn, its state set to each stream's key and a zero counter.
Coarse-grid increments are defined as the window sums of the fast-grid
increments, which makes the fast/coarse coupling exact by construction.

Runs on several fast grids of one coarse step, Delta/m_i, share one draw: the
driver of their union (``NoiseDriver.union``) cuts each coarse window at every
point of every grid, the gaps computed exactly from the integers m_i, and each
grid's increments are the left-to-right sums of the union's over its steps
(``grid_increments``).  So every grid and the coarse grid ride one Brownian
path.  The union has at most sum(m_i) substeps per window, where the finest
grid holding every point, Delta/lcm(m_i), can have far more (1001 against 29
for m = 7, 11, 13).

Long runs are drawn in blocks of whole coarse windows: each stream's Philox
state is saved from one block to the next as one row of a uint64 array, and
consecutive pieces of a Philox stream are bit-identical to one draw of their
total length, so the block size changes memory, never values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatch, ValidationError

# Bytes of fast increments drawn at a time by ``NoiseDriver.blocks``.  Each
# block costs one state load and save per stream, a few us, so the budget is
# large enough for that to vanish next to the draws and small enough that a
# run's increments no longer set its peak memory.
BLOCK_BYTES = 16 * 2**20

# numpy's SeedSequence (numpy/random/bit_generator.pyx): O'Neill's seed_seq
# mixing of 32-bit entropy words into a pool of four, then two 64-bit words of
# state drawn from the pool as a Philox key.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# One stream's saved Philox state, as one uint64 row: the 4-word counter, the
# 2-word key, the 4-word output buffer, buffer_pos, has_uint32 and uinteger.
# A fresh stream has a zero counter and an empty buffer (buffer_pos 4).
_STATE_WORDS = 13


def _hashmix(value, h, mult=_MULT_A):
    """SeedSequence's hashmix of a word (a Python int or a uint32 array):
    (hashed word, next hash constant)."""
    value = value ^ h
    h = h * mult & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _absorb(pool, words, h):
    """Mix each of ``words`` into every pool word; returns the hash constant."""
    for w in words:
        for dst in range(_POOL):
            v, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], v)
    return h


def _words(n: int) -> list:
    """n >= 0 as SeedSequence reads an integer: little-endian 32-bit words."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _stream_keys(master_seed: int, spawn) -> np.ndarray:
    """Philox keys ``SeedSequence(entropy=master_seed, spawn_key=key)
    .generate_state(2, np.uint64)`` for the spawn keys whose components are the
    broadcastable integer arrays ``spawn``: shape (*broadcast, 2), uint64.

    The master seed is one Python int for all streams, so its words are mixed
    in once; the hash constants do not depend on the data, so each spawn word
    is one array operation across all streams.  Spawn components must lie in
    [0, 2**32), where SeedSequence reads each as one word."""
    spawn = [np.asarray(c) for c in spawn]
    if any(c.size and not (0 <= c.min() and c.max() < 2**32) for c in spawn):
        raise ValidationError("spawn key components must lie in [0, 2**32)")
    run = _words(master_seed)
    run += [0] * (_POOL - len(run))   # a spawned sequence pads its entropy to the pool
    h = _INIT_A
    pool = []
    for w in run[:_POOL]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    h = _absorb(pool, run[_POOL:], h)
    shape = np.broadcast_shapes(*(c.shape for c in spawn))
    pool = [np.full(shape, p, dtype=np.uint32) for p in pool]
    _absorb(pool, [c.astype(np.uint32) for c in spawn], h)
    state, h = [], _INIT_B
    for p in pool:
        v, h = _hashmix(p, h, _MULT_B)
        state.append(v.astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def _philox_state(row: list) -> dict:
    return {
        "bit_generator": "Philox",
        "state": {"counter": row[0:4], "key": row[4:6]},
        "buffer": row[6:10],
        "buffer_pos": row[10],
        "has_uint32": row[11],
        "uinteger": row[12],
    }


def _state_row(state: dict) -> list:
    inner = state["state"]
    return [*inner["counter"], *inner["key"], *state["buffer"],
            state["buffer_pos"], state["has_uint32"], state["uinteger"]]


def union_grid(ms):
    """The union of the fast grids {j/m : 0 <= j < m}, m in ``ms``, on a coarse
    window of unit length, in exact integer arithmetic: (gaps, cuts).  Every
    point is a multiple of 1/L, L = lcm(ms); gaps[u] is the length of the
    union's substep u in units of 1/L, so the gaps sum to L; cuts[i] holds,
    for each step of grid ms[i] in order, the union substep it begins at."""
    L = math.lcm(*ms)
    points = sorted({j * (L // m) for m in ms for j in range(m)})
    gaps = [b - a for a, b in zip(points, points[1:] + [L])]   # ints of any size
    where = {p: u for u, p in enumerate(points)}
    cuts = [np.array([where[j * (L // m)] for j in range(m)]) for m in ms]
    return gaps, cuts


def grid_increments(union: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """One grid's increments over one coarse window, (R, len(cuts), P, C), from
    the union's increments ``union`` (R, U, P, C) of that window: step s is the
    sum of substeps cuts[s] up to the next cut (the last up to U), added left to
    right, ((a + b) + c) + ...  A new array; nothing of ``union`` is kept."""
    bounds = [*cuts.tolist(), union.shape[1]]
    out = union[:, cuts]
    for s in range(len(cuts)):
        step = out[:, s]
        for u in range(bounds[s] + 1, bounds[s + 1]):
            step += union[:, u]
    return out


class NoiseDriver:
    """Gaussian increment source on a fast grid of step ``delta`` with a
    coarse grid of step ``m_substeps * delta``, or on the union of several
    fast grids (``union``).

    ``blocks`` streams a run's increments: it holds one block of at most
    ``BLOCK_BYTES`` of fast increments (never less than one window), so the
    memory of a run's noise is bounded by that budget, not by ``T/delta``.
    ``fast_increments_batch`` alone returns the whole stretch it is asked for.
    """

    def __init__(self, master_seed: int, delta: float, m_substeps: int = 1):
        if master_seed < 0:
            raise ValidationError(f"master seed must be >= 0, got {master_seed}")
        if delta <= 0.0 or not np.isfinite(delta):
            raise ValidationError(f"fast step must be positive, got {delta}")
        if m_substeps < 1 or int(m_substeps) != m_substeps:
            raise GridMismatch(f"coarse step must be an integer multiple, got {m_substeps}")
        self.master_seed = int(master_seed)
        self.delta = float(delta)
        self.m_substeps = int(m_substeps)
        # standard deviation of an increment; per substep, (m_substeps, 1),
        # when a window's substeps are unequal
        self._scale = np.sqrt(self.delta)

    @classmethod
    def union(cls, master_seed: int, Delta: float, deltas, ms):
        """(driver, cuts) for runs on the fast grids of steps ``deltas``, as
        passed, with ms[i] steps of deltas[i] to a coarse window of step
        ``Delta``: one driver on the union of the grids (``union_grid``), and
        per grid the cuts that ``grid_increments`` sums its steps by.

        When the union is one of the grids (a single grid, or grids nested in
        the finest), the driver is that grid's: steps of its delta as passed,
        bit for bit the increments of a run on that grid alone.  Otherwise
        substep u has the length gaps[u] / lcm(ms) * Delta, the ratio rounded
        once, and increments of that variance; ``delta`` is then the mean substep,
        and the driver draws whole windows only."""
        gaps, cuts = union_grid(ms)
        U = len(gaps)
        if U in ms:
            return cls(master_seed, deltas[ms.index(U)], U), cuts
        driver = cls(master_seed, Delta / U, U)
        L = sum(gaps)
        driver._scale = np.sqrt(np.array([g / L for g in gaps]) * Delta)[:, None]
        return driver, cuts

    def fast_increments(
        self, replica: int, n_particles: int, n_components: int, n_steps: int
    ) -> np.ndarray:
        """Increments of shape (n_steps, n_particles, n_components), variance
        delta; on a driver of unequal substeps (``union``), substep u of each
        window has variance gaps[u] / lcm(ms) * Delta, and ``delta`` is only
        their mean."""
        return self.fast_increments_batch(
            [replica], n_particles, n_components, n_steps
        )[0]

    def fast_increments_batch(
        self, replicas, n_particles: int, n_components: int, n_steps: int,
        live=None,
    ) -> np.ndarray:
        """Stacked increments for several replicas: (R, n_steps, P, C).

        Each call starts the keyed streams afresh, unless it is handed a list
        ``live``: an empty one receives the call's saved stream states (one
        uint64 array, a row per stream), a filled one is drawn on from where
        the previous call left them.  Consecutive calls on one ``live`` list
        give consecutive pieces of the same streams.
        """
        replicas = [int(r) for r in replicas]
        windows = np.ndim(self._scale) > 0   # unequal substeps: scaled window by window
        if windows and n_steps % self.m_substeps:
            raise GridMismatch(
                f"{n_steps} fast steps are not whole windows of {self.m_substeps} unequal substeps"
            )
        if live:
            states = live[0]
        else:
            keys = _stream_keys(self.master_seed, (
                np.array(replicas)[:, None, None],
                np.arange(n_particles)[:, None],
                np.arange(n_components),
            ))
            states = np.zeros((keys[..., 0].size, _STATE_WORDS), dtype=np.uint64)
            states[:, 4:6] = keys.reshape(-1, 2)
            states[:, 10] = 4
            if live is not None:
                live.append(states)
        width = n_particles * n_components
        out = np.empty((len(replicas), n_steps, width))
        bitgen = np.random.Philox(key=0)
        gen = np.random.Generator(bitgen)
        for s, row in enumerate(states.tolist()):
            bitgen.state = _philox_state(row)
            out[s // width, :, s % width] = gen.standard_normal(n_steps)
            if live is not None:
                states[s] = _state_row(bitgen.state)
        if windows:
            out = out.reshape(len(replicas), -1, self.m_substeps, width)
        out *= self._scale
        return out.reshape(len(replicas), n_steps, n_particles, n_components)

    def blocks(self, replicas, n_particles: int, n_components: int, n_windows: int):
        """Fast increments of ``n_windows`` coarse windows, streamed: yields
        (R, w * m_substeps, P, C) arrays for consecutive runs of w whole
        windows, w as large as ``BLOCK_BYTES`` allows (at least 1).  A run
        that fits into one block is drawn in one call and saves no stream
        state."""
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
