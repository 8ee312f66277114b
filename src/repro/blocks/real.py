"""Blocks backed by actual numpy key arrays, and the operations on them.

This is the only blocks module that imports numpy: :mod:`repro.blocks.ops`
hands real blocks here and keeps virtual ones to itself, so a virtual
run never loads it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.blocks.layout import DEFAULT_RECORD_BYTES, KEY_SPACE, check_record_bytes


class RealBlock:
    """A block of records with materialised keys.

    Only keys are materialised (values are never inspected by sort or
    aggregation), but ``size_bytes`` accounts for full records so the
    storage layer sees realistic volumes.
    """

    __slots__ = ("keys", "record_bytes", "sorted")

    def __init__(
        self,
        keys: np.ndarray,
        record_bytes: int = DEFAULT_RECORD_BYTES,
        is_sorted: bool = False,
    ) -> None:
        check_record_bytes(record_bytes)
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        self.keys = keys
        self.record_bytes = record_bytes
        self.sorted = is_sorted

    @classmethod
    def generate(
        cls,
        num_records: int,
        seed: int,
        record_bytes: int = DEFAULT_RECORD_BYTES,
        key_space: int = KEY_SPACE,
    ) -> "RealBlock":
        """Uniform random records, as the sort benchmark's gensort does."""
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, key_space, size=num_records, dtype=np.uint64)
        return cls(keys, record_bytes=record_bytes)

    # -- the Block interface -------------------------------------------------
    @property
    def num_records(self) -> int:
        return int(self.keys.size)

    @property
    def size_bytes(self) -> int:
        return self.num_records * self.record_bytes

    @property
    def key_range(self) -> Optional[Tuple[int, int]]:
        """(min, max) of present keys; None when empty."""
        if self.keys.size == 0:
            return None
        if self.sorted:
            return int(self.keys[0]), int(self.keys[-1])
        return int(self.keys.min()), int(self.keys.max())

    @property
    def is_virtual(self) -> bool:
        return False

    def checksum(self) -> int:
        """Additive content fingerprint, mod 2**64.

        Sums compose across any re-grouping of records, so the total over
        all blocks is conserved by partition/merge/sort.
        """
        with np.errstate(over="ignore"):
            key_sum = int(np.sum(self.keys, dtype=np.uint64))
        return (key_sum + self.num_records) % 2**64

    def __repr__(self) -> str:
        return (
            f"RealBlock(records={self.num_records}, "
            f"bytes={self.size_bytes}, sorted={self.sorted})"
        )


def partition_real(block: RealBlock, bounds: List[int]) -> List[RealBlock]:
    """:func:`repro.blocks.ops.partition_block` over materialised keys.

    Sorts the keys once and cuts that run at ``bounds``: every piece is
    a sorted view of one buffer. A key equal to a bound goes to the
    upper piece.
    """
    keys = block.keys if block.sorted else np.sort(block.keys)
    cuts = np.searchsorted(keys, np.asarray(bounds, dtype=np.uint64), "left")
    # Plain slices: np.split measured ~1.5x slower per cut.
    edges = [0, *cuts.tolist(), keys.size]
    return [
        RealBlock(keys[a:b], record_bytes=block.record_bytes, is_sorted=True)
        for a, b in zip(edges, edges[1:])
    ]


def sort_real(block: RealBlock) -> RealBlock:
    """:func:`repro.blocks.ops.sort_block` over materialised keys.

    A block already sorted comes back as itself, with no copy.
    """
    if block.sorted:
        return block
    return RealBlock(
        np.sort(block.keys), record_bytes=block.record_bytes, is_sorted=True
    )


def combine_real(blocks: Sequence[RealBlock], is_sorted: bool) -> RealBlock:
    """All records of ``blocks`` in one block, sorted if ``is_sorted``.

    The merge sorts the fresh concatenation in place with numpy's default
    kind: a stable (timsort) merge of the sorted runs measured slower.
    """
    keys = np.concatenate([block.keys for block in blocks])
    if is_sorted:
        keys.sort()
    return RealBlock(keys, record_bytes=blocks[0].record_bytes, is_sorted=is_sorted)
