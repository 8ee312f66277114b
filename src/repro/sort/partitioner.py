"""Range partitioning: choosing the reducer key boundaries.

TeraSort samples input keys to pick boundaries that balance reducer
sizes.  For real blocks we sample; for virtual blocks keys are uniform by
construction, so uniform cut points are exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.blocks.layout import KEY_SPACE

if TYPE_CHECKING:
    from repro.blocks.real import RealBlock


def uniform_bounds(num_reduces: int, key_space: int = KEY_SPACE) -> List[int]:
    """Equal-width cut points: ``num_reduces - 1`` ascending boundaries."""
    if num_reduces < 1:
        raise ValueError("need at least one reducer")
    return [key_space * r // num_reduces for r in range(1, num_reduces)]


def sample_bounds(
    blocks: Sequence[RealBlock],
    num_reduces: int,
    samples_per_block: int = 100,
    seed: int = 0,
) -> List[int]:
    """Boundary keys from sampled quantiles of the actual data."""
    import numpy as np

    if num_reduces < 1:
        raise ValueError("need at least one reducer")
    rng = np.random.default_rng(seed)
    sampled = []
    for block in blocks:
        if block.num_records == 0:
            continue
        take = min(samples_per_block, block.num_records)
        sampled.append(rng.choice(block.keys, size=take, replace=False))
    if not sampled:
        return uniform_bounds(num_reduces)
    pool = np.sort(np.concatenate(sampled))
    quantiles = [
        pool[len(pool) * r // num_reduces] for r in range(1, num_reduces)
    ]
    # Boundaries must be strictly ascending for partition_block; nudge
    # duplicates (heavy skew) upward.
    bounds: List[int] = []
    previous = -1
    for q in quantiles:
        q = int(max(q, previous + 1))
        bounds.append(q)
        previous = q
    return bounds
