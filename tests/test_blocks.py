"""Unit and property-based tests for block payloads and operations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks import (
    RealBlock,
    VirtualBlock,
    concat_blocks,
    merge_sorted_blocks,
    partition_block,
    sort_block,
    total_records,
)
from repro.blocks.real import KEY_SPACE


class TestRealBlock:
    def test_generate_is_deterministic(self):
        a = RealBlock.generate(100, seed=7)
        b = RealBlock.generate(100, seed=7)
        assert (a.keys == b.keys).all()
        assert a.checksum() == b.checksum()

    def test_size_accounts_for_full_records(self):
        block = RealBlock.generate(50, seed=1, record_bytes=100)
        assert block.size_bytes == 5000
        assert block.num_records == 50

    def test_key_range(self):
        keys = np.array([5, 2, 9], dtype=np.uint64)
        assert RealBlock(keys).key_range == (2, 9)
        assert RealBlock(np.sort(keys), is_sorted=True).key_range == (2, 9)
        assert RealBlock(np.array([], dtype=np.uint64)).key_range is None
        empty = RealBlock(np.array([], dtype=np.uint64), is_sorted=True)
        assert empty.key_range is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RealBlock(np.zeros((2, 2)), record_bytes=100)
        with pytest.raises(ValueError):
            RealBlock(np.array([1]), record_bytes=4)

    @pytest.mark.parametrize(
        "key_space, dtype",
        [(1000, np.uint32), (KEY_SPACE, np.uint32), (KEY_SPACE + 1, np.uint64),
         (2**40, np.uint64)],
    )
    def test_generate_key_width_follows_key_space(self, key_space, dtype):
        block = RealBlock.generate(500, seed=11, key_space=key_space)
        reference = np.random.default_rng(11).integers(
            0, key_space, 500, dtype=np.uint64
        )
        assert block.keys.dtype == dtype
        np.testing.assert_array_equal(block.keys.astype(np.uint64), reference)

    def test_checksum_and_key_range_equal_across_widths(self):
        keys = np.random.default_rng(12).integers(0, KEY_SPACE, 300, dtype=np.uint64)
        keys[0] = KEY_SPACE - 1
        wide, narrow = RealBlock(keys), RealBlock(keys.astype(np.uint32))
        assert narrow.keys.dtype == np.uint32
        assert narrow.checksum() == wide.checksum()
        assert narrow.key_range == wide.key_range
        assert narrow.key_range[1] == KEY_SPACE - 1

    def test_key_dtypes_kept_others_widened(self):
        narrow = np.array([3, 1], dtype=np.uint32)
        assert RealBlock(narrow).keys is narrow
        assert RealBlock([3, 1]).keys.dtype == np.uint64
        assert RealBlock(np.array([3, 1], dtype=np.int64)).keys.dtype == np.uint64


class TestVirtualBlock:
    def test_basic_properties(self):
        block = VirtualBlock(1000, record_bytes=100)
        assert block.size_bytes == 100_000
        assert block.is_virtual
        assert block.key_range == (0, KEY_SPACE)

    def test_empty_block_has_no_range(self):
        assert VirtualBlock(0).key_range is None

    def test_validation(self):
        with pytest.raises(ValueError):
            VirtualBlock(-1)
        with pytest.raises(ValueError):
            VirtualBlock(1, key_range=(10, 5))


class TestPartition:
    def test_real_partition_respects_bounds(self):
        block = RealBlock.generate(1000, seed=3, key_space=1000)
        pieces = partition_block(block, [250, 500, 750])
        assert len(pieces) == 4
        assert total_records(pieces) == 1000
        for i, piece in enumerate(pieces):
            if piece.key_range is None:
                continue
            lo, hi = piece.key_range
            assert lo >= [0, 250, 500, 750][i]
            assert hi < [250, 500, 750, 1000][i]

    def test_real_partition_conserves_checksum(self):
        block = RealBlock.generate(500, seed=4)
        pieces = partition_block(block, [KEY_SPACE // 2])
        total = sum(p.checksum() for p in pieces) % 2**64
        assert total == block.checksum()

    def test_virtual_partition_conserves_records_exactly(self):
        block = VirtualBlock(10_000, key_range=(0, 999))
        pieces = partition_block(block, [100, 400, 777])
        assert total_records(pieces) == 10_000
        assert all(p.is_virtual for p in pieces)

    def test_virtual_partition_proportional_to_range(self):
        block = VirtualBlock(1000, key_range=(0, 999))
        low, high = partition_block(block, [100])
        assert low.num_records == pytest.approx(100, abs=2)
        assert high.num_records == pytest.approx(900, abs=2)

    def test_descending_bounds_rejected(self):
        with pytest.raises(ValueError):
            partition_block(VirtualBlock(10), [5, 3])

    def test_real_map_pieces_share_one_sorted_buffer(self):
        from repro.sort.ops import SortOps

        block = RealBlock.generate(1000, seed=5, key_space=1000)
        pieces = SortOps([250, 500, 750]).map(block)
        assert all(piece.sorted for piece in pieces)
        buffer = pieces[0].keys.base
        assert buffer is not None
        assert all(piece.keys.base is buffer for piece in pieces if piece.num_records)

    def test_virtual_map_returns_partition_pieces_sorted(self, monkeypatch):
        import repro.sort.ops as sort_ops

        returned = []

        def recording(block, bounds):
            returned.extend(partition_block(block, bounds))
            return returned

        monkeypatch.setattr(sort_ops, "partition_block", recording)
        pieces = sort_ops.SortOps([250, 500, 750]).map(
            VirtualBlock(1000, key_range=(0, 999))
        )
        assert len(pieces) == 4
        assert all(piece.sorted for piece in pieces)
        assert all(a is b for a, b in zip(pieces, returned))

    def test_partition_empty_virtual(self):
        pieces = partition_block(VirtualBlock(0), [10, 20])
        assert len(pieces) == 3
        assert total_records(pieces) == 0


class TestMergeSortConcat:
    def test_sort_real(self):
        block = RealBlock(np.array([3, 1, 2], dtype=np.uint64))
        out = sort_block(block)
        assert list(out.keys) == [1, 2, 3]
        assert out.sorted

    def test_sort_real_on_sorted_block_copies_nothing(self):
        block = RealBlock.generate(100, seed=2)
        piece = partition_block(block, [KEY_SPACE // 2])[0]
        out = sort_block(piece)
        assert out.sorted
        assert np.shares_memory(out.keys, piece.keys)

    def test_merge_sorted_real(self):
        a = sort_block(RealBlock(np.array([1, 5, 9], dtype=np.uint64)))
        b = sort_block(RealBlock(np.array([2, 3, 10], dtype=np.uint64)))
        merged = merge_sorted_blocks([a, b])
        assert list(merged.keys) == [1, 2, 3, 5, 9, 10]

    def test_merge_virtual_unions_ranges(self):
        a = VirtualBlock(10, key_range=(0, 49))
        b = VirtualBlock(20, key_range=(100, 149))
        merged = merge_sorted_blocks([a, b])
        assert merged.num_records == 30
        assert merged.key_range == (0, 149)
        assert merged.sorted

    def test_concat_keeps_unsorted_flag(self):
        a = RealBlock(np.array([5], dtype=np.uint64))
        b = RealBlock(np.array([1], dtype=np.uint64))
        assert not concat_blocks([a, b]).sorted

    def test_mixing_kinds_rejected(self):
        with pytest.raises(TypeError):
            merge_sorted_blocks(
                [VirtualBlock(1), RealBlock(np.array([1], dtype=np.uint64))]
            )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_sorted_blocks([])

    def test_mixing_real_record_widths_rejected(self):
        """The result is sized from one width: 2 x 100 B + 1 x 1,000 B
        would have read 300 B."""
        narrow = RealBlock(np.array([1, 2], dtype=np.uint64), record_bytes=100)
        wide = RealBlock(np.array([3], dtype=np.uint64), record_bytes=1000)
        with pytest.raises(ValueError):
            merge_sorted_blocks([narrow, wide])
        with pytest.raises(ValueError):
            concat_blocks([narrow, wide])

    def test_mixing_virtual_record_widths_rejected(self):
        """10 x 100 B + 10 x 200 B would have read 2,000 B."""
        narrow = VirtualBlock(10, record_bytes=100)
        wide = VirtualBlock(10, record_bytes=200)
        with pytest.raises(ValueError):
            concat_blocks([narrow, wide])
        with pytest.raises(ValueError):
            merge_sorted_blocks([narrow, wide])

    def test_merge_of_mixed_key_widths_is_uint64(self):
        narrow = RealBlock(np.array([1, 7], dtype=np.uint32), is_sorted=True)
        wide = RealBlock(np.array([2**40], dtype=np.uint64), is_sorted=True)
        merged = merge_sorted_blocks([narrow, wide])
        assert merged.keys.dtype == np.uint64
        assert list(merged.keys) == [1, 7, 2**40]


# -- property-based invariants -------------------------------------------

bounds_strategy = st.lists(
    st.integers(min_value=1, max_value=KEY_SPACE - 1),
    min_size=0,
    max_size=20,
    unique=True,
).map(sorted)


@settings(max_examples=60, deadline=None)
@given(
    num_records=st.integers(min_value=0, max_value=3000),
    bounds=bounds_strategy,
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_real_partition_conserves_everything(num_records, bounds, seed):
    block = RealBlock.generate(num_records, seed=seed)
    pieces = partition_block(block, bounds)
    assert len(pieces) == len(bounds) + 1
    assert total_records(pieces) == num_records
    assert sum(p.checksum() for p in pieces) % 2**64 == block.checksum()


key_dtypes = st.sampled_from([np.uint32, np.uint64])


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=5, max_value=40), max_size=200),
    bounds=st.lists(st.integers(min_value=0, max_value=45), max_size=8).map(sorted),
    presorted=st.booleans(),
    dtype=key_dtypes,
)
def test_property_real_partition_matches_reference(keys, bounds, presorted, dtype):
    """Each piece holds exactly the keys a bucket-then-sort reference
    gives it, sorted: a small key space makes duplicate keys, keys equal
    to a bound, and bounds outside the keys' range common. The reference
    works in uint64 whatever width the block holds."""
    keys = np.array(keys, dtype=np.uint64)
    narrowed = keys.astype(dtype)
    block = (
        RealBlock(np.sort(narrowed), is_sorted=True)
        if presorted
        else RealBlock(narrowed)
    )
    assert block.keys.dtype == dtype
    pieces = partition_block(block, bounds)
    buckets = np.searchsorted(np.array(bounds, dtype=np.uint64), keys, "right")
    assert len(pieces) == len(bounds) + 1
    for r, piece in enumerate(pieces):
        expected = np.sort(keys[buckets == r])
        assert piece.sorted
        np.testing.assert_array_equal(piece.keys, expected)
        unsorted = RealBlock(piece.keys[::-1].copy())
        assert piece.key_range == unsorted.key_range


@settings(max_examples=60, deadline=None)
@given(
    num_records=st.integers(min_value=0, max_value=10**9),
    bounds=bounds_strategy,
)
def test_property_virtual_partition_conserves_records(num_records, bounds):
    block = VirtualBlock(num_records)
    pieces = partition_block(block, bounds)
    assert total_records(pieces) == num_records
    # No piece may be negative and ranges must nest inside the parent's.
    for piece in pieces:
        assert piece.num_records >= 0
        if piece.key_range is not None:
            lo, hi = piece.key_range
            assert 0 <= lo <= hi <= KEY_SPACE


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**31),
    dtype=key_dtypes,
)
def test_property_merge_equals_global_sort(sizes, seed, dtype):
    rng = np.random.default_rng(seed)
    drawn = [rng.integers(0, 10**6, size=n, dtype=np.uint64) for n in sizes]
    blocks = [sort_block(RealBlock(keys.astype(dtype))) for keys in drawn]
    merged = merge_sorted_blocks(blocks)
    reference = np.sort(np.concatenate(drawn))
    assert merged.keys.dtype == dtype
    np.testing.assert_array_equal(merged.keys, reference)


@settings(max_examples=40, deadline=None)
@given(
    num_records=st.integers(min_value=1, max_value=2000),
    num_parts=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_partition_then_merge_is_sort(num_records, num_parts, seed):
    """The core sort identity: partition + per-range sort + concat ==
    global sort."""
    from repro.sort.partitioner import uniform_bounds

    block = RealBlock.generate(num_records, seed=seed)
    bounds = uniform_bounds(num_parts)
    pieces = [sort_block(p) for p in partition_block(block, bounds)]
    glued = np.concatenate([p.keys for p in pieces])
    assert (glued == np.sort(block.keys)).all()
