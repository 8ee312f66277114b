"""Partition / merge / sort over blocks, real or virtual.

These are the building blocks of every map/merge/reduce function the
shuffle libraries use.  All operations conserve record counts exactly --
``sum(num_records)`` is invariant under any composition -- which is how
TB-scale virtual runs are validated.

Virtual blocks are handled here; real ones are handed to
:mod:`repro.blocks.real`, imported only when a real block arrives, so a
virtual run never imports numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Union

from repro.blocks.virtual import VirtualBlock

if TYPE_CHECKING:
    from repro.blocks.real import RealBlock

Block = Union["RealBlock", VirtualBlock]


def total_records(blocks: Sequence[Block]) -> int:
    """Total record count across ``blocks`` (the conserved invariant)."""
    return sum(block.num_records for block in blocks)


def _check_uniform(blocks: Sequence[Block]) -> bool:
    """All real or all virtual; returns True when virtual."""
    if not blocks:
        raise ValueError("no blocks given")
    kinds = {block.is_virtual for block in blocks}
    if len(kinds) != 1:
        raise TypeError("cannot mix real and virtual blocks in one operation")
    return blocks[0].is_virtual


def partition_block(block: Block, bounds: Sequence[int]) -> List[Block]:
    """Split ``block`` into ``len(bounds) + 1`` range partitions.

    ``bounds`` are ascending cut points; partition ``r`` receives keys in
    ``[bounds[r-1], bounds[r])`` (with open ends).  This is the map-side
    operation of a range-partitioned sort.
    """
    bounds = list(bounds)
    if any(a > b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("partition bounds must be ascending")
    if block.is_virtual:
        return _partition_virtual(block, bounds)
    from repro.blocks.real import partition_real

    return partition_real(block, bounds)


def _partition_virtual(block: VirtualBlock, bounds: List[int]) -> List[Block]:
    num_parts = len(bounds) + 1
    if block.key_range is None:  # empty block
        return [
            VirtualBlock(0, record_bytes=block.record_bytes, key_range=None)
            for _ in range(num_parts)
        ]
    lo, hi = block.key_range
    span = hi - lo + 1
    edges = [lo] + [min(max(b, lo), hi + 1) for b in bounds] + [hi + 1]
    fractions = [(edges[i + 1] - edges[i]) / span for i in range(num_parts)]
    counts = _largest_remainder(block.num_records, fractions)
    out: List[Block] = []
    for i, count in enumerate(counts):
        if count == 0:
            key_range = None
        else:
            key_range = (edges[i], max(edges[i], edges[i + 1] - 1))
        out.append(
            VirtualBlock(count, record_bytes=block.record_bytes, key_range=key_range)
        )
    return out


def _largest_remainder(total: int, fractions: Sequence[float]) -> List[int]:
    """Apportion ``total`` by ``fractions`` with exact conservation."""
    raw = [total * f for f in fractions]
    counts = [int(x) for x in raw]
    shortfall = total - sum(counts)
    remainders = sorted(
        range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True
    )
    for i in remainders[:shortfall]:
        counts[i] += 1
    return counts


def sort_block(block: Block) -> Block:
    """Sort a single block by key."""
    if block.is_virtual:
        return VirtualBlock(
            block.num_records,
            record_bytes=block.record_bytes,
            key_range=block.key_range,
            is_sorted=True,
        )
    from repro.blocks.real import sort_real

    return sort_real(block)


def merge_sorted_blocks(blocks: Sequence[Block]) -> Block:
    """K-way merge of blocks into one sorted block."""
    return _combine(blocks, is_sorted=True)


def concat_blocks(blocks: Sequence[Block]) -> Block:
    """Concatenate blocks without sorting."""
    return _combine(blocks, is_sorted=False)


def _combine(blocks: Sequence[Block], is_sorted: bool) -> Block:
    if not _check_uniform(blocks):
        from repro.blocks.real import combine_real

        return combine_real(blocks, is_sorted)
    ranges = [block.key_range for block in blocks if block.key_range is not None]
    if ranges:
        key_range = (min(r[0] for r in ranges), max(r[1] for r in ranges))
    else:
        key_range = None
    return VirtualBlock(
        total_records(blocks),
        record_bytes=blocks[0].record_bytes,
        key_range=key_range,
        is_sorted=is_sorted,
    )
