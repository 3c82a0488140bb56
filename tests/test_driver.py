import functools
import math
import operator

import numpy as np
import pytest

from smallmass import driver
from smallmass.driver import NoiseDriver, grid_increments, union_grid
from smallmass.errors import GridMismatch, ValidationError


class TestDeterminism:
    def test_same_key_same_sequence(self):
        a = NoiseDriver(1234, 0.01, 4).fast_increments(3, 2, 2, 50)
        b = NoiseDriver(1234, 0.01, 4).fast_increments(3, 2, 2, 50)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        drv = NoiseDriver(1234, 0.01)
        base = drv.fast_increments(0, 1, 1, 100)
        assert not np.array_equal(base, drv.fast_increments(1, 1, 1, 100))
        two = drv.fast_increments(0, 2, 1, 100)
        assert np.array_equal(two[:, 0, 0], base[:, 0, 0])
        assert not np.array_equal(two[:, 1, 0], base[:, 0, 0])

    def test_seed_changes_sequence(self):
        a = NoiseDriver(1, 0.01).fast_increments(0, 1, 1, 64)
        b = NoiseDriver(2, 0.01).fast_increments(0, 1, 1, 64)
        assert not np.array_equal(a, b)

    def test_batch_matches_single(self):
        drv = NoiseDriver(77, 0.02, 2)
        batch = drv.fast_increments_batch([4, 9], 3, 1, 20)
        assert np.array_equal(batch[0], drv.fast_increments(4, 3, 1, 20))
        assert np.array_equal(batch[1], drv.fast_increments(9, 3, 1, 20))


class TestKeyHash:
    # the vectorized keys against numpy's own SeedSequence: a numpy change to
    # the hash fails here instead of moving every increment
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5, 10**40])
    def test_keys_match_seed_sequence(self, seed):
        spawn = [(0, 0, 0), (3, 7, 1), (2**31, 5, 0), (1, 2**31, 2**31), (2**32 - 1, 0, 9)]
        keys = driver._stream_keys(seed, np.array(spawn, dtype=np.uint64).T)
        for key, sp in zip(keys, spawn):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=sp)
            assert np.array_equal(key, ss.generate_state(2, np.uint64))

    def test_keys_broadcast_over_the_spawn_grid(self):
        keys = driver._stream_keys(11, (np.arange(2)[:, None, None], np.arange(3)[:, None], np.arange(2)))
        assert keys.shape == (2, 3, 2, 2) and keys.dtype == np.uint64
        ss = np.random.SeedSequence(entropy=11, spawn_key=(1, 2, 0))
        assert np.array_equal(keys[1, 2, 0], ss.generate_state(2, np.uint64))

    @pytest.mark.parametrize("replica", [2**32, 2**64, -1])
    def test_spawn_component_beyond_one_word_is_rejected(self, replica):
        # SeedSequence reads a component >= 2**32 as two words
        with pytest.raises(ValidationError, match="2\\*\\*32"):
            NoiseDriver(3, 0.01).fast_increments(replica, 1, 1, 4)

    def test_negative_master_seed_is_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            NoiseDriver(-1, 0.01)

    @pytest.mark.parametrize("seed", [2**63 - 1, 2**64 + 5])
    def test_draws_are_the_seed_sequence_streams(self, seed):
        got = NoiseDriver(seed, 1.0).fast_increments_batch([2, 0], 3, 2, 9)
        for r_i, r in enumerate([2, 0]):
            for p in range(3):
                for c in range(2):
                    ss = np.random.SeedSequence(entropy=seed, spawn_key=(r, p, c))
                    want = np.random.Generator(np.random.Philox(ss)).standard_normal(9)
                    assert np.array_equal(got[r_i, :, p, c], want)


class TestStreaming:
    def test_pieces_match_one_draw(self):
        drv = NoiseDriver(31, 0.01)
        whole = drv.fast_increments_batch([2, 5], 3, 2, 2000)
        live = []
        pieces = [drv.fast_increments_batch([2, 5], 3, 2, n, live) for n in (7, 250, 743, 1000)]
        assert np.array_equal(np.concatenate(pieces, axis=1), whole)
        # the saved states: one uint64 row per (replica, particle, component)
        assert len(live) == 1 and live[0].shape == (12, 13) and live[0].dtype == np.uint64

    # a window of 3 replicas x 4 steps x 2 particles x 2 components is 384
    # bytes: blocks of one window, of three (the last one short), of the run
    @pytest.mark.parametrize("block_bytes, n_blocks", [(1, 10), (3 * 384, 4), (2**40, 1)])
    def test_blocks_are_whole_windows_of_one_draw(self, monkeypatch, block_bytes, n_blocks):
        monkeypatch.setattr(driver, "BLOCK_BYTES", block_bytes)
        drv = NoiseDriver(8, 0.005, 4)
        blocks = list(drv.blocks([0, 3, 4], 2, 2, 10))
        assert [b.shape[1] % 4 for b in blocks] == [0] * n_blocks
        whole = drv.fast_increments_batch([0, 3, 4], 2, 2, 40)
        assert np.array_equal(np.concatenate(blocks, axis=1), whole)


class TestCoupling:
    def test_window_sums_are_exact_for_small_windows(self):
        # sequential summation for windows this small: bit-for-bit equality
        drv = NoiseDriver(5, 0.005, 4)
        fast = drv.fast_increments(0, 2, 1, 32)
        coarse = drv.coarse_from_fast(fast)
        assert coarse.shape == (8, 2, 1)
        for j in range(8):
            manual = np.zeros((2, 1))
            for s in range(4):
                manual += fast[4 * j + s]
            assert np.array_equal(coarse[j], manual)

    def test_window_sums_match_reduce_for_larger_windows(self):
        drv = NoiseDriver(5, 0.005, 20)
        fast = drv.fast_increments(1, 1, 1, 200)
        coarse = drv.coarse_from_fast(fast)
        for j in range(10):
            window = fast[20 * j:20 * (j + 1)]
            assert np.array_equal(coarse[j], window.sum(axis=0))

    def test_rejects_partial_window(self):
        drv = NoiseDriver(5, 0.005, 4)
        fast = drv.fast_increments(0, 1, 1, 10)
        with pytest.raises(GridMismatch):
            drv.coarse_from_fast(fast)


class TestUnionGrid:
    # a non-nested pair: m = 3 and 4 fast steps to a coarse window of 0.01,
    # the explicit rule's steps for eps = 0.2/3 and 0.05 at kappa = 20
    MS = [3, 4]
    DELTA = 0.01

    def union(self, seed=6):
        deltas = [self.DELTA / m for m in self.MS]
        return NoiseDriver.union(seed, self.DELTA, deltas, self.MS)

    @pytest.mark.parametrize("ms", [[3, 4], [2, 4, 10, 20], [7, 11, 13], [5]])
    def test_gaps_of_each_step_sum_exactly_to_its_step(self, ms):
        # integer gaps in units of 1 / lcm(ms): a step of grid m is lcm / m
        gaps, cuts = union_grid(ms)
        L = math.lcm(*ms)
        assert sum(gaps) == L and min(gaps) > 0
        for m, cut in zip(ms, cuts):
            ends = list(cut[1:]) + [len(gaps)]
            assert [sum(gaps[a:b]) for a, b in zip(cut, ends)] == [L // m] * m

    @pytest.mark.parametrize("ms, size", [([3, 4], 6), ([2, 4, 10, 20], 20), ([7, 11, 13], 29)])
    def test_a_window_draws_at_most_the_sum_of_the_steps(self, ms, size):
        gaps, _ = union_grid(ms)
        assert len(gaps) == size <= sum(ms)
        drv, _ = NoiseDriver.union(1, 0.01, [0.01 / m for m in ms], ms)
        blocks = list(drv.blocks([0, 1], 2, 1, 5))
        assert sum(b.shape[1] for b in blocks) == 5 * size   # normals per stream

    @pytest.mark.parametrize("ms", [[3, 4], [2, 4, 10, 20], [7, 11, 13]])
    def test_grid_increments_are_left_to_right_sums_of_the_union(self, ms):
        # steps of unequal lengths ([3, 4], [7, 11, 13]) and of equal ones (the
        # grids nested in the finest, [2, 4, 10, 20])
        drv, cuts = NoiseDriver.union(6, self.DELTA, [self.DELTA / m for m in ms], ms)
        U = drv.m_substeps
        union = drv.fast_increments_batch([0, 3], 2, 2, 4 * U)
        for w in range(4):
            window = union[:, w * U:(w + 1) * U]
            for m, cut in zip(ms, cuts):
                got = grid_increments(window, cut)
                ends = list(cut[1:]) + [U]
                want = np.stack([
                    functools.reduce(operator.add, [window[:, u] for u in range(a, b)])
                    for a, b in zip(cut, ends)
                ], axis=1)
                assert got.shape == (2, m, 2, 2) and np.array_equal(got, want)

    def test_window_sums_are_the_coarse_increments(self):
        drv, cuts = self.union()
        U = drv.m_substeps
        union = drv.fast_increments_batch([1], 3, 1, 6 * U)
        coarse = drv.coarse_from_fast(union)
        assert coarse.shape == (1, 6, 3, 1)
        for w in range(6):
            window = union[:, w * U:(w + 1) * U]
            assert np.array_equal(coarse[:, w], window.sum(axis=1))
            for cut in cuts:   # each grid's steps cover the same window
                assert np.allclose(grid_increments(window, cut).sum(axis=1), coarse[:, w],
                                   rtol=0, atol=1e-15)

    def test_substep_variance_is_its_gap(self):
        drv, cuts = self.union(seed=41)
        gaps, _ = union_grid(self.MS)
        U, n_windows = len(gaps), 4000
        union = drv.fast_increments_batch([0], 1, 1, n_windows * U)[0, :, 0, 0]
        for u, gap in enumerate(gaps):
            xs = union[u::U]
            var = gap / sum(gaps) * self.DELTA
            assert abs(xs.var() - var) <= 4.0 * var * np.sqrt(2.0 / n_windows)

    def test_partial_window_of_unequal_substeps_is_refused(self):
        drv, _ = self.union()
        with pytest.raises(GridMismatch):
            drv.fast_increments_batch([0], 1, 1, drv.m_substeps + 1)

    @pytest.mark.parametrize("ms", [[4], [4, 4], [2, 4]])
    def test_a_union_that_is_one_grid_keeps_its_bits(self, ms):
        # one grid, a shared step, or grids nested in the finest: the driver
        # of the finest grid, scaled by its step as passed
        deltas = [0.01 / m for m in ms]
        drv, cuts = NoiseDriver.union(9, 0.01, deltas, ms)
        alone = NoiseDriver(9, deltas[-1], 4)
        assert drv.m_substeps == 4
        assert np.array_equal(
            drv.fast_increments_batch([0, 2], 2, 1, 8), alone.fast_increments_batch([0, 2], 2, 1, 8)
        )
        assert np.array_equal(cuts[-1], np.arange(4))


class TestStatistics:
    def test_increment_variance(self):
        delta = 0.25
        xs = NoiseDriver(99, delta).fast_increments(0, 1, 1, 20000)[:, 0, 0]
        assert abs(xs.mean()) <= 3.0 * np.sqrt(delta / xs.size) + 1e-12
        var = xs.var()
        se = delta * np.sqrt(2.0 / xs.size)
        assert abs(var - delta) <= 4.0 * se

    def test_invalid_construction(self):
        with pytest.raises(ValidationError):
            NoiseDriver(0, -1.0)
        with pytest.raises(GridMismatch):
            NoiseDriver(0, 0.1, 0)
