"""Data skew handling and concurrent shuffles on one runtime."""

import numpy as np
import pytest

from repro.blocks import RealBlock, partition_block, total_records
from repro.common.units import MB
from repro.shuffle import push_based_shuffle, simple_shuffle
from repro.sort import SortOps, sample_bounds, uniform_bounds
from repro.sort.validate import validate_sorted_output

from tests.conftest import make_runtime


def skewed_block(n, seed, hot_fraction=0.6):
    """Keys where a majority of records cluster in a tiny hot range."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 1000, size=int(n * hot_fraction))
    cold = rng.integers(0, 2**32, size=n - len(hot))
    return RealBlock(np.concatenate([hot, cold]).astype(np.uint64))


class TestSkew:
    def test_sampling_partitioner_balances_skewed_keys(self):
        blocks = [skewed_block(2000, seed=i) for i in range(4)]
        num_reduces = 8
        sampled = sample_bounds(blocks, num_reduces, seed=1)
        uniform = uniform_bounds(num_reduces)

        def reducer_sizes(bounds):
            sizes = np.zeros(num_reduces)
            for block in blocks:
                for r, piece in enumerate(partition_block(block, bounds)):
                    sizes[r] += piece.num_records
            return sizes

        sampled_sizes = reducer_sizes(sampled)
        uniform_sizes = reducer_sizes(uniform)
        # Uniform bounds dump the hot range into one reducer; sampled
        # bounds split it.  Compare the largest reducer share.
        assert sampled_sizes.max() < 0.5 * uniform_sizes.max()

    def test_skewed_sort_still_validates(self):
        rt = make_runtime(num_nodes=3)
        blocks = [skewed_block(1500, seed=i) for i in range(6)]
        num_reduces = 6
        bounds = sample_bounds(blocks, num_reduces, seed=2)
        ops = SortOps(bounds)

        def driver():
            stage = rt.remote(lambda b: b)
            parts = [stage.remote(b) for b in blocks]
            refs = push_based_shuffle(
                rt, parts, ops.map, ops.merge, ops.reduce, num_reduces
            )
            return [rt.peek(r) for r in refs if rt.wait(refs, num_returns=len(refs))]

        outputs = rt.run(driver)
        expected = sum(b.num_records for b in blocks)
        checksum = sum(b.checksum() for b in blocks) % 2**64
        validate_sorted_output(outputs, bounds, expected, checksum)

    def test_duplicate_heavy_keys_dont_break_bounds(self):
        """Extreme skew: almost all keys identical."""
        keys = np.full(5000, 42, dtype=np.uint64)
        keys[:10] = np.arange(10)
        block = RealBlock(keys)
        bounds = sample_bounds([block], 4, seed=0)
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        pieces = partition_block(block, bounds)
        assert total_records(pieces) == 5000

    def test_hot_top_key_bounds_past_uint32_do_not_wrap(self):
        """Duplicate quantiles at the top key nudge bounds past 2**32 - 1;
        a uint32 block must cut exactly where its uint64 twin does."""
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**32, size=4000, dtype=np.uint64)
        keys[:3600] = 2**32 - 1
        wide, narrow = RealBlock(keys), RealBlock(keys.astype(np.uint32))
        assert narrow.keys.dtype == np.uint32
        bounds = sample_bounds([narrow], 8, seed=0)
        assert bounds == sample_bounds([wide], 8, seed=0)
        assert bounds[-1] > 2**32 - 1
        ops = SortOps(bounds)
        pieces, reference = ops.map(narrow), ops.map(wide)
        for piece, expected in zip(pieces, reference):
            np.testing.assert_array_equal(
                piece.keys.astype(np.uint64), expected.keys
            )
        assert pieces[-1].num_records == 0
        validate_sorted_output(pieces, bounds, 4000, wide.checksum())


class TestConcurrentJobs:
    def test_two_shuffles_share_one_runtime(self):
        """Two independent jobs interleave on the same data plane; both
        finish correctly and faster than they would back to back."""
        rt = make_runtime(num_nodes=3, store_mib=1024)

        def make_inputs(tag):
            rng = np.random.default_rng(tag)
            return [rng.integers(0, 1000, size=200).tolist() for _ in range(6)]

        def map_fn(values):
            return [
                [v for v in values if v % 3 == r] for r in range(3)
            ]

        def reduce_fn(*lists):
            return sum(sum(lst) for lst in lists)

        def driver():
            refs_a = simple_shuffle(rt, make_inputs(1), map_fn, reduce_fn, 3)
            refs_b = simple_shuffle(rt, make_inputs(2), map_fn, reduce_fn, 3)
            totals_a = sum(rt.get(refs_a))
            totals_b = sum(rt.get(refs_b))
            return totals_a, totals_b

        total_a, total_b = rt.run(driver)
        assert total_a == sum(sum(vs) for vs in make_inputs(1))
        assert total_b == sum(sum(vs) for vs in make_inputs(2))

    def test_ml_and_sort_coexist(self):
        """A training pipeline and a sort job share the cluster without
        corrupting each other -- the portability story of Fig 1b."""
        from repro.ml import ExoshuffleLoader, SyntheticHiggs
        from repro.ml.loaders import stage_blocks
        from repro.sort import SortJobConfig, run_sort

        rt = make_runtime(num_nodes=3, store_mib=1024)
        data = SyntheticHiggs(num_samples=2000, seed=7, io_scale=10.0)
        refs = rt.run(lambda: stage_blocks(rt, data.training_blocks(4)))
        loader = ExoshuffleLoader(rt, refs, seed=0)

        def driver():
            epoch_refs = loader.submit_epoch(0)
            # While the epoch shuffles, nothing stops another application
            # from running its own shuffle on the same runtime.
            blocks = rt.get(epoch_refs)
            return sum(b.num_records for b in blocks)

        assert rt.run(driver) == 2000
        result = run_sort(
            rt,
            SortJobConfig(
                variant="push*", num_partitions=6, partition_bytes=4 * MB,
                virtual=True,
            ),
        )
        assert result.validated
