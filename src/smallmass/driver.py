"""Deterministic keyed Brownian increments for synchronously coupled runs.

Each (replica, particle, component) triple owns an independent Philox stream:
the stream of ``SeedSequence(entropy=master_seed, spawn_key=(r, p, c))``,
so increment sequences are reproducible regardless of execution order.
Philox is counter-based, so a stream is fully given by its 128-bit key and
counter (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11): the keys of a whole draw are derived at once by a vectorized
transcription of SeedSequence's hash, and one generator draws the streams in
turn, its state set to each stream's key and a zero counter.
Coarse-grid increments are defined as the window sums of the fast-grid
increments, added left to right as every grid's are (``grid_increments``),
which makes the fast/coarse coupling exact by construction.

Runs on several fast grids of one coarse step, Delta/m_i, share one draw: the
driver of their union (``NoiseDriver.union``) cuts each coarse window at every
point of every grid, the gaps computed exactly from the integers m_i, and each
grid's increments are the left-to-right sums of the union's over its steps
(``grid_increments``).  So every grid and the coarse grid ride one Brownian
path.  Substep u has the variance gaps[u] * Delta / lcm(m_i); grids nested in
the finest have every gap 1, so each substep is exactly Delta / max(m_i), the
step of the finest grid alone.  The union has at most sum(m_i) substeps per
window, where the finest grid holding every point, Delta/lcm(m_i), can have
far more (1001 against 29 for m = 7, 11, 13).

Each stream is drawn whole into a contiguous row of a small scratch array, a
group of one replica's consecutive streams at a time, and each group is
scaled to its variance as it is copied into the (R, steps, P*C) block
transposed, one multiplication per value.  Long runs are drawn in
blocks of whole coarse windows: each stream's Philox state is saved from one
block to the next as one row of a uint64 array (only the words a normal draw
changes are written), and consecutive pieces of a Philox stream are
bit-identical to one draw of their total length, so the block size changes
memory, never values.  A run's last block saves nothing.  Timed on 2 vCPUs
with numpy 2.4.6, a stream of 500 normals costs about 10 us to draw, 1.3 us
to load its state, 0.4 us to copy and scale and, where it is saved, 3.5 to 6 us to
save (mostly reading the generator's state); a 16 MB block of 4,096 such
streams takes about 0.07 s, and 0.1 s when its states are saved.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridMismatch, ValidationError, integer, real

# Bytes of fast increments drawn at a time by ``NoiseDriver.blocks``.  In a
# run of several blocks, each block costs a state load per stream, 1.3 us, and
# each but the last a save, 3.5 to 6 us, against 10 us for a stream's 500
# normals (module docstring); the budget is small enough that a run's
# increments no longer set its peak memory.
BLOCK_BYTES = 16 * 2**20

# Bytes of the scratch array that one replica's streams are drawn into, one
# whole stream a row, before the group of rows is scaled into the block
# transposed; a stream longer than this budget is drawn alone into a scratch
# of its own length.
SCRATCH_BYTES = 64 * 2**10

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


def _save_state(row: np.ndarray, state: dict) -> None:
    """Write into a saved-state row the words a float64 normal draw changes:
    the counter, the buffer and buffer_pos (the key, has_uint32 and uinteger
    stay as they were)."""
    row[0:4] = state["state"]["counter"]
    row[6:10] = state["buffer"]
    row[10] = state["buffer_pos"]


def _draw(states: np.ndarray, n_replicas: int, width: int, n_steps: int, save: bool, scale):
    """Normals (n_replicas, n_steps, width) times ``scale`` (a number, or a
    column of one factor per step) of the streams whose Philox states are the
    rows of ``states``, stream s in column s % width of replica s // width;
    with ``save`` the rows are updated to where the draws leave the streams.

    Each stream is drawn whole into a row of the scratch, a group of up to
    ``span`` consecutive streams of one replica at a time, and each group is
    scaled as it is copied into the block transposed.  The scratch holds at most
    ``SCRATCH_BYTES``, unless one stream is longer than that: it then holds
    that one stream, at most the whole block for a single-stream replica."""
    out = np.empty((n_replicas, n_steps, width))
    span = max(1, min(width, SCRATCH_BYTES // (8 * max(n_steps, 1))))
    scratch = np.empty((span, n_steps))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox", "state": {}}
    inner = state["state"]
    saved = states.tolist()
    for r in range(n_replicas):
        for j0 in range(0, width, span):
            j1 = min(j0 + span, width)
            group = scratch[:j1 - j0]
            for s, normals in enumerate(group, r * width + j0):
                row = saved[s]
                inner["counter"], inner["key"] = row[0:4], row[4:6]
                state["buffer"], state["buffer_pos"] = row[6:10], row[10]
                state["has_uint32"], state["uinteger"] = row[11], row[12]
                bitgen.state = state
                gen.standard_normal(out=normals)
                if save:
                    _save_state(states[s], bitgen.state)
            np.multiply(group.T, scale, out=out[r, :, j0:j1])
    return out


def _step_count(m) -> int:
    """``m``, fast steps to a coarse step, as an int; GridMismatch unless it is
    a positive integer (an integral float passes)."""
    try:
        count = int(m)
    except (TypeError, ValueError, OverflowError):   # None, NaN, an infinity
        count = 0
    if count < 1 or count != m:   # a string such as "2" is not equal to 2
        raise GridMismatch(f"coarse step must be an integer multiple, got {m!r}")
    return count


def union_grid(ms):
    """The union of the fast grids {j/m : 0 <= j < m}, m in ``ms``, on a coarse
    window of unit length, in exact integer arithmetic: (gaps, cuts).  Every
    point is a multiple of 1/L, L = lcm(ms); gaps[u] is the length of the
    union's substep u in units of 1/L, so the gaps sum to L; cuts[i] holds,
    for each step of grid ms[i] in order, the union substep it begins at.  No
    grid is the coarse window alone: one gap, no cuts."""
    L = math.lcm(*ms)
    points = sorted({0, *(j * (L // m) for m in ms for j in range(m))})
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
        self.master_seed = integer(master_seed, "master seed", 0)
        self.delta = real(delta, "fast step", positive=True)
        self.m_substeps = _step_count(m_substeps)
        # standard deviation of an increment; per substep, (m_substeps, 1),
        # when a window's substeps are unequal
        self._scale = np.sqrt(self.delta)

    @classmethod
    def union(cls, master_seed: int, Delta: float, ms):
        """(driver, cuts) for runs on the fast grids of ms[i] steps to a coarse
        window of step ``Delta``: one driver on the union of the grids
        (``union_grid``; no grid is one substep of ``Delta``), and per grid the
        cuts that ``grid_increments`` sums its steps by, None for a grid whose
        steps are the union's substeps.

        Substep u has increments of variance gaps[u] * Delta / L, L = lcm(ms),
        in Python floats (L may exceed int64); for nested grids that is
        Delta / max(ms), bit for bit the step ``DeltaRule.resolve`` gives the
        finest grid.  ``delta`` is the mean substep, and the driver draws
        whole windows only."""
        Delta = real(Delta, "coarse step", positive=True)
        gaps, cuts = union_grid([_step_count(m) for m in ms])
        L = sum(gaps)
        driver = cls(master_seed, Delta / len(gaps), len(gaps))
        driver._scale = np.sqrt([g * Delta / L for g in gaps])[:, None]
        return driver, [c if len(c) < len(gaps) else None for c in cuts]

    def fast_increments(
        self, replica: int, n_particles: int, n_components: int, n_steps: int
    ) -> np.ndarray:
        """Increments of shape (n_steps, n_particles, n_components), variance
        delta; on a union driver (``union``), substep u of each window has
        variance gaps[u] * Delta / lcm(ms), and ``delta`` is only their mean."""
        return self.fast_increments_batch(
            [replica], n_particles, n_components, n_steps
        )[0]

    def fast_increments_batch(
        self, replicas, n_particles: int, n_components: int, n_steps: int,
        live=None, *, _last=False,
    ) -> np.ndarray:
        """Stacked increments for several replicas: (R, n_steps, P, C).

        Each call starts the keyed streams afresh, unless it is handed a list
        ``live``: an empty one receives the call's saved stream states (one
        uint64 array, a row per stream), a filled one is drawn on from where
        the previous call left them.  Consecutive calls on one ``live`` list
        give consecutive pieces of the same streams.  ``_last`` marks the
        last piece, whose states nothing reads, so none are saved (``blocks``
        sets it on a run's last block).
        """
        replicas = [integer(r, "replica id") for r in replicas]
        n_particles = integer(n_particles, "n_particles", 0)
        n_components = integer(n_components, "n_components", 0)
        n_steps = integer(n_steps, "n_steps", 0)
        scale = self._scale
        if np.ndim(scale):   # a union driver: one factor per substep of a window
            if n_steps % self.m_substeps:
                raise GridMismatch(f"{n_steps} fast steps are not whole windows "
                                   f"of {self.m_substeps} union substeps")
            scale = np.tile(scale, (n_steps // self.m_substeps, 1))
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
        out = _draw(states, len(replicas), n_particles * n_components, n_steps,
                    live is not None and not _last, scale)
        return out.reshape(len(replicas), n_steps, n_particles, n_components)

    def blocks(self, replicas, n_particles: int, n_components: int, n_windows: int):
        """Fast increments of ``n_windows`` coarse windows, streamed: yields
        (R, w * m_substeps, P, C) arrays for consecutive runs of w whole
        windows, w as large as ``BLOCK_BYTES`` allows (at least 1).  Stream
        states are saved after every block but the last; a run that fits
        into one block is drawn in one call and saves none."""
        replicas = list(replicas)
        n_windows = integer(n_windows, "n_windows", 0)
        window_bytes = (len(replicas) * integer(n_particles, "n_particles", 0)
                        * integer(n_components, "n_components", 0) * self.m_substeps * 8)
        per_block = max(1, min(n_windows, BLOCK_BYTES // max(window_bytes, 1)))
        live = [] if per_block < n_windows else None
        for start in range(0, n_windows, per_block):
            n_steps = min(per_block, n_windows - start) * self.m_substeps
            yield self.fast_increments_batch(
                replicas, n_particles, n_components, n_steps, live,
                _last=start + per_block >= n_windows,
            )

    def coarse_from_fast(self, fast: np.ndarray) -> np.ndarray:
        """Window sums along the step axis (axis -3): (..., n_coarse, P, C),
        each added left to right by ``grid_increments``, so bit for bit the
        increments that the limit steps over in a run.  No run calls it, since
        the limit sums its windows as one more grid of the draw; it stays for
        callers and for perfbench's tracer.  One substep a window returns
        ``fast`` itself.
        """
        if self.m_substeps == 1:
            return fast
        n_steps = fast.shape[-3]
        if n_steps % self.m_substeps:
            raise GridMismatch(
                f"{n_steps} fast steps do not tile into windows of {self.m_substeps}"
            )
        windows = fast.reshape((-1, self.m_substeps) + fast.shape[-2:])
        coarse = grid_increments(windows, np.zeros(1, dtype=int))
        return coarse.reshape(fast.shape[:-3] + (n_steps // self.m_substeps,) + fast.shape[-2:])
