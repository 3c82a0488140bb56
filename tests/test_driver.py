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

    # 1.5 and True once drew replica 1: the master seed's rule
    @pytest.mark.parametrize("replica", [1.5, True, np.True_, 2.0, "1"])
    def test_non_integer_replica_id_is_rejected(self, replica):
        with pytest.raises(ValidationError, match="replica id must be an integer"):
            NoiseDriver(1, 0.01).fast_increments(replica, 1, 1, 4)

    @pytest.mark.parametrize("replica", [np.int64(3), np.uint32(3)])
    def test_numpy_integer_replica_id_is_its_value(self, replica):
        want = NoiseDriver(1, 0.01).fast_increments(3, 1, 1, 4)
        assert np.array_equal(NoiseDriver(1, 0.01).fast_increments(replica, 1, 1, 4), want)

    def test_negative_master_seed_is_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            NoiseDriver(-1, 0.01)

    # 1.5 and True once ran as seed 1, NaN ended in a bare ValueError and "7"
    # in a TypeError
    @pytest.mark.parametrize("seed", [1.5, True, np.True_, float("nan"), "7", 2.0, np.float64(3.0)])
    def test_non_integer_master_seed_is_rejected(self, seed):
        with pytest.raises(ValidationError, match="master seed must be an integer"):
            NoiseDriver(seed, 0.01)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int8(7)])
    def test_numpy_integer_master_seed_is_its_value(self, seed):
        want = NoiseDriver(7, 0.01).fast_increments(1, 2, 1, 16)
        assert np.array_equal(NoiseDriver(seed, 0.01).fast_increments(1, 2, 1, 16), want)

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

    # each once a TypeError, or numpy's ValueError for negative dimensions
    @pytest.mark.parametrize("counts, what", [
        ((1.5, 1, 2), "n_particles"), ((1, "1", 2), "n_components"),
        ((1, 1, 2.5), "n_steps"), ((1, 1, -1), "n_steps"), ((-1, 1, 2), "n_particles"),
    ])
    def test_a_count_that_is_not_an_integer_is_refused(self, counts, what):
        drv = NoiseDriver(0, 0.1)
        with pytest.raises(ValidationError, match=f"{what} must be"):
            drv.fast_increments(0, *counts)
        with pytest.raises(ValidationError, match=f"{what} must be"):
            drv.fast_increments_batch([0, 1], *counts)
        # blocks counts windows where the draw counts steps
        what = "n_windows" if what == "n_steps" else what
        with pytest.raises(ValidationError, match=f"{what} must be"):
            next(drv.blocks([0], *counts))

    def test_zero_counts_draw_nothing(self):
        drv = NoiseDriver(0, 0.1)
        assert drv.fast_increments_batch([0], 0, 2, 3).shape == (1, 3, 0, 2)
        assert drv.fast_increments_batch([0], 2, 2, 0).shape == (1, 0, 2, 2)
        assert list(drv.blocks([0], 1, 1, 0)) == []

    # one stream a replica, 5 replicas: a group is one stream, whatever the
    # scratch (the default, or 3 rows of a block's stream)
    @pytest.mark.parametrize("scratch_rows", [None, 3])
    def test_single_stream_replicas_are_numpys_streams(self, monkeypatch, scratch_rows):
        monkeypatch.setattr(driver, "BLOCK_BYTES", 5 * 8 * 8)   # blocks of 8 steps
        if scratch_rows is not None:
            monkeypatch.setattr(driver, "SCRATCH_BYTES", scratch_rows * 8 * 8)
        blocks = list(NoiseDriver(13, 1.0, 4).blocks(range(5), 1, 1, 5))
        assert len(blocks) == 3
        streamed = np.concatenate(blocks, axis=1)
        for r in range(5):
            ss = np.random.SeedSequence(entropy=13, spawn_key=(r, 0, 0))
            want = np.random.Generator(np.random.Philox(ss)).standard_normal(20)
            assert np.array_equal(streamed[r, :, 0, 0], want)

    def test_no_state_is_saved_after_the_last_block(self, monkeypatch):
        # 2 replicas x 3 particles x 2 components: 12 streams, 10 windows of 4
        # steps in blocks of 3 windows, so 4 blocks and 3 saves per stream
        calls = []
        save = driver._save_state
        monkeypatch.setattr(driver, "_save_state", lambda *a: calls.append(1) or save(*a))
        monkeypatch.setattr(driver, "BLOCK_BYTES", 3 * 2 * 3 * 2 * 4 * 8)
        drv = NoiseDriver(19, 0.005, 4)
        blocks = list(drv.blocks([1, 6], 3, 2, 10))
        assert len(blocks) == 4 and len(calls) == 3 * 12
        whole = drv.fast_increments_batch([1, 6], 3, 2, 40)
        assert np.array_equal(np.concatenate(blocks, axis=1), whole)

    def test_a_run_of_one_block_saves_nothing(self, monkeypatch):
        monkeypatch.setattr(driver, "_save_state", None)   # any save would fail
        assert len(list(NoiseDriver(19, 0.005, 4).blocks([1, 6], 3, 2, 10))) == 1

    # the union of the grids m = 3 and 4: 6 unequal substeps a window; 3
    # replicas x 5 particles x 2 components are 30 streams, a window 1440
    # bytes; blocks of one window, of four (the last one short) and of the
    # whole run, each with the default scratch (a replica's 10 streams in one
    # group), one of 3 rows (a replica's 10 streams are not a multiple of 3),
    # one of 20 (still one group a replica, never more) and one shorter than
    # a stream's block (each stream drawn alone into a scratch of its length)
    @pytest.mark.parametrize("block_bytes, n_blocks", [(1, 10), (4 * 1440, 3), (2**40, 1)])
    @pytest.mark.parametrize("scratch_rows", [None, 3, 20, 0.75])
    def test_unequal_substeps_stream_as_numpys_streams(
        self, monkeypatch, block_bytes, n_blocks, scratch_rows
    ):
        ms, Delta, n_windows = (3, 4), 0.01, 10
        monkeypatch.setattr(driver, "BLOCK_BYTES", block_bytes)
        drv, _ = NoiseDriver.union(23, Delta, list(ms))
        U = drv.m_substeps
        steps = min(n_windows, -(-n_windows // n_blocks)) * U   # a full block's steps
        if scratch_rows is not None:
            monkeypatch.setattr(driver, "SCRATCH_BYTES", int(scratch_rows * steps * 8))
        blocks = list(drv.blocks([0, 2, 7], 5, 2, n_windows))
        assert len(blocks) == n_blocks
        streamed = np.concatenate(blocks, axis=1)
        assert np.array_equal(streamed, drv.fast_increments_batch([0, 2, 7], 5, 2, n_windows * U))
        gaps, _ = union_grid(list(ms))
        scale = np.sqrt([g * Delta / sum(gaps) for g in gaps])
        for r_i, r in enumerate([0, 2, 7]):
            for p in range(5):
                for c in range(2):
                    ss = np.random.SeedSequence(entropy=23, spawn_key=(r, p, c))
                    normals = np.random.Generator(np.random.Philox(ss)).standard_normal(n_windows * U)
                    want = (normals.reshape(n_windows, U) * scale).ravel()
                    assert np.array_equal(streamed[r_i, :, p, c], want)


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
        # a left fold, as grid_increments adds, where numpy's sum would be
        # pairwise (one stream, 20 substeps a window)
        drv = NoiseDriver(5, 0.005, 20)
        fast = drv.fast_increments(1, 1, 1, 200)
        coarse = drv.coarse_from_fast(fast)
        for j in range(10):
            window = fast[20 * j:20 * (j + 1)]
            assert np.array_equal(coarse[j], functools.reduce(operator.add, list(window)))

    def test_window_of_one_substep_is_the_substep(self):
        # the increments themselves: numpy's sum would turn -0.0 into +0.0
        drv = NoiseDriver(5, 0.005, 1)
        fast = np.array([[[-0.0]], [[0.5]]])
        coarse = drv.coarse_from_fast(fast)
        assert coarse is fast and np.signbit(coarse[0, 0, 0])

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
        return NoiseDriver.union(seed, self.DELTA, self.MS)

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
        drv, _ = NoiseDriver.union(1, 0.01, ms)
        blocks = list(drv.blocks([0, 1], 2, 1, 5))
        assert sum(b.shape[1] for b in blocks) == 5 * size   # normals per stream

    @pytest.mark.parametrize("ms", [[3, 4], [2, 4, 10, 20], [7, 11, 13]])
    def test_grid_increments_are_left_to_right_sums_of_the_union(self, ms):
        # steps of unequal lengths ([3, 4], [7, 11, 13]) and of equal ones (the
        # grids nested in the finest, [2, 4, 10, 20]); the cuts of union_grid,
        # since the driver hands none to the finest grid of nested ones
        drv, _ = NoiseDriver.union(6, self.DELTA, ms)
        _, cuts = union_grid(ms)
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

    @pytest.mark.parametrize("ms", [[4], [4, 4], [2, 4], [2, 4, 10, 20]])
    def test_a_union_that_is_one_grid_keeps_its_bits(self, ms):
        # one grid, a shared step, or grids nested in the finest: every gap is
        # 1, so each substep is Delta / m, the step DeltaRule.resolve gives
        # the finest grid, and the draw is that grid's alone, bit for bit; so
        # the finest grid's steps are the draw itself and it carries no cuts
        m = ms[-1]
        drv, cuts = NoiseDriver.union(9, 0.01, ms)
        alone = NoiseDriver(9, 0.01 / m, m)
        assert drv.m_substeps == m
        assert np.array_equal(
            drv.fast_increments_batch([0, 2], 2, 1, 2 * m),
            alone.fast_increments_batch([0, 2], 2, 1, 2 * m),
        )
        assert cuts[-1] is None
        assert all(np.array_equal(c, np.arange(0, m, m // k)) for k, c in zip(ms, cuts)
                   if k < m)

    def test_no_grid_is_the_coarse_grid_alone(self):
        # one substep of Delta a window and no cuts: the draw of a plain
        # driver on the coarse step, bit for bit
        assert union_grid([]) == ([1], [])
        drv, cuts = NoiseDriver.union(9, 0.01, [])
        assert (drv.m_substeps, drv.delta, cuts) == (1, 0.01, [])
        assert np.array_equal(
            drv.fast_increments_batch([0, 2], 3, 2, 7),
            NoiseDriver(9, 0.01, 1).fast_increments_batch([0, 2], 3, 2, 7),
        )

    @pytest.mark.parametrize("ms", [[0], [3, 0], [-2], [2.5], [float("nan")], ["4"]])
    def test_a_grid_that_is_not_a_positive_step_count_is_refused(self, ms):
        # [0] once ended in a ZeroDivisionError
        with pytest.raises(GridMismatch, match="integer multiple"):
            NoiseDriver.union(0, 0.1, ms)


class TestStatistics:
    def test_increment_variance(self):
        delta = 0.25
        xs = NoiseDriver(99, delta).fast_increments(0, 1, 1, 20000)[:, 0, 0]
        assert abs(xs.mean()) <= 3.0 * np.sqrt(delta / xs.size) + 1e-12
        var = xs.var()
        se = delta * np.sqrt(2.0 / xs.size)
        assert abs(var - delta) <= 4.0 * se

    # a string, None and a list once leaked TypeError from the comparison
    @pytest.mark.parametrize("delta", [-1.0, 0.0, float("inf"), float("nan"), "0.1", None, [0.1]])
    def test_invalid_construction(self, delta):
        with pytest.raises(ValidationError, match="fast step"):
            NoiseDriver(0, delta, 1)

    # an infinity, NaN and a string once leaked OverflowError, ValueError and
    # TypeError; 0 and 2.5 were already GridMismatch
    @pytest.mark.parametrize("m", [0, 2.5, -3, float("inf"), float("nan"), "2", None])
    def test_step_count_that_is_not_a_positive_integer(self, m):
        with pytest.raises(GridMismatch, match="integer multiple"):
            NoiseDriver(0, 0.1, m)

    def test_integral_step_count_is_taken(self):
        assert NoiseDriver(0, 0.1, 4.0).m_substeps == 4
