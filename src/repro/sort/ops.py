"""The sort operator set plugged into the shuffle libraries.

One :class:`SortOps` instance binds the reducer boundaries and exposes the
map / merge / reduce callables each shuffle variant expects.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.blocks import merge_sorted_blocks, partition_block
from repro.blocks.ops import Block


class SortOps:
    """Map/merge/reduce functions for a range-partitioned sort."""

    def __init__(self, bounds: Sequence[int]) -> None:
        self.bounds = list(bounds)
        self.num_reduces = len(self.bounds) + 1

    # -- operators ---------------------------------------------------------
    def map(self, part: Block) -> List[Block]:
        """Range-partition one input into per-reducer sorted runs.

        :func:`partition_block` already returns sorted pieces.
        """
        return partition_block(part, self.bounds)

    def merge_columns(self, *blocks: Block) -> List[Block]:
        """Riffle merge: F x R map-major blocks -> R column-merged blocks."""
        num_reduces = self.num_reduces
        if len(blocks) % num_reduces != 0:
            raise ValueError(
                f"expected a multiple of {num_reduces} blocks, got {len(blocks)}"
            )
        rows = len(blocks) // num_reduces
        return [
            merge_sorted_blocks(
                [blocks[m * num_reduces + r] for m in range(rows)]
            )
            for r in range(num_reduces)
        ]

    def merge(self, *blocks: Block) -> Block:
        """Merge blocks destined for one reducer into one sorted run."""
        return merge_sorted_blocks(list(blocks))

    def reduce(self, *blocks: Block) -> Block:
        """Final reduce: merge a reducer's runs into its output partition."""
        return merge_sorted_blocks(list(blocks))
