import numpy as np
import pytest

from smallmass import driver
from smallmass.driver import NoiseDriver
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
