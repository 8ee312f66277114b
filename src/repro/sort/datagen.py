"""Input generation: the benchmark's gensort equivalent.

Partitions are created by datagen *tasks* spread across the cluster, so
the input starts distributed (and, at TB scale, spilled to each node's
disk) exactly as a real sort benchmark's input sits in a distributed
filesystem.  Generation time is excluded from sort timings, matching the
benchmark rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.blocks.layout import DEFAULT_RECORD_BYTES, KEY_SPACE
from repro.blocks.virtual import VirtualBlock
from repro.common.rng import derive_seed
from repro.futures import ObjectRef, Runtime
from repro.shuffle.common import worker_nodes

if TYPE_CHECKING:
    from repro.blocks.real import RealBlock


def generate_partitions(
    rt: Runtime,
    num_partitions: int,
    partition_bytes: int,
    record_bytes: int = DEFAULT_RECORD_BYTES,
    virtual: bool = True,
    seed: int = 0,
) -> List[ObjectRef]:
    """Create the input partitions as distributed objects (blocking).

    Must be called from inside a driver.  Returns one ref per partition;
    partitions are pinned round-robin across workers like a distributed
    filesystem would place them.
    """
    if num_partitions < 1:
        raise ValueError("need at least one partition")
    records_per_part = max(1, partition_bytes // record_bytes)
    nodes = worker_nodes(rt)

    def gen_virtual(index: int) -> VirtualBlock:
        del index
        return VirtualBlock(
            records_per_part,
            record_bytes=record_bytes,
            key_range=(0, KEY_SPACE - 1),
        )

    def gen_real(index: int) -> RealBlock:
        from repro.blocks.real import RealBlock

        return RealBlock.generate(
            records_per_part,
            seed=derive_seed(seed, "datagen", index),
            record_bytes=record_bytes,
            key_space=KEY_SPACE,
        )

    gen_task = rt.remote(gen_virtual if virtual else gen_real)
    refs = [
        gen_task.options(node=nodes[i % len(nodes)]).remote(i)
        for i in range(num_partitions)
    ]
    rt.wait(refs, num_returns=len(refs))
    return refs
