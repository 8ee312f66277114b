"""Ablations on the memory-management design choices (§4.3.1, §5.1.4).

1. Eager freeing of map bundles (ES-push* vs ES-push): dropping the
   references trades recovery redundancy for less write amplification --
   push* must write strictly fewer disk bytes.
2. Library-level backpressure (Listing 3's wait): with an effectively
   unbounded pipeline depth, map bundles pile up faster than merges drain
   them and spill traffic grows.
3. Spill write fusing: the ``"unfused"`` spill policy (one of the
   names in ``repro.futures.config.SPILL_POLICIES``) writes one
   seek-paying file per object instead of fused >=100 MB files, so the
   same push* run cannot be faster than the fused default.

Every arm is a (variant, pipeline depth, spill-policy name) triple --
the spill behaviour is selected purely by ``RuntimeConfig.spill_policy``,
with no per-arm branching inside the benchmark.
"""

import pytest

from repro.metrics import ResultTable

from benchmarks._harness import (
    SCALED_TB,
    hdd_node,
    finish_bench,
    make_runtime,
)
from repro.futures import RuntimeConfig
from repro.sort import SortJobConfig, run_sort

NUM_NODES = 10
PARTITIONS = 400

#: (table label, sort variant, pipeline depth, spill-policy name).
ARMS = [
    ("push* (free bundles, depth 3)", "push*", 3, "default"),
    ("push (keep bundles, depth 3)", "push", 3, "default"),
    ("push* (no backpressure)", "push*", 1000, "default"),
    ("push* (unfused spill)", "push*", 3, "unfused"),
]


def _run_variant(variant: str, pipeline_depth: int, spill_policy: str):
    rt = make_runtime(
        hdd_node(),
        NUM_NODES,
        config=RuntimeConfig(spill_policy=spill_policy),
    )
    result = run_sort(
        rt,
        SortJobConfig(
            variant=variant,
            num_partitions=PARTITIONS,
            partition_bytes=SCALED_TB // PARTITIONS,
            virtual=True,
            pipeline_depth=pipeline_depth,
        ),
    )
    assert result.validated
    return result.sort_seconds, rt.counters.get("disk_bytes_written") / 1e9


def _run_figure():
    table = ResultTable(
        "Ablation: eager GC, backpressure, write fusing (400 partitions)",
        ["config", "seconds", "disk_gb_written"],
    )
    for label, variant, depth, spill_policy in ARMS:
        seconds, written = _run_variant(variant, depth, spill_policy)
        table.add_row(config=label, seconds=seconds, disk_gb_written=written)
    return table


@pytest.mark.benchmark(group="ablation")
def test_ablation_memory_management(benchmark):
    table = benchmark.pedantic(_run_figure, rounds=1, iterations=1)
    finish_bench("ablation_memory", table, benchmark=benchmark)
    star = table.find(config="push* (free bundles, depth 3)")
    keep = table.find(config="push (keep bundles, depth 3)")
    unbounded = table.find(config="push* (no backpressure)")
    unfused = table.find(config="push* (unfused spill)")
    # Keeping bundle refs costs extra disk writes (durability tax).
    assert star["disk_gb_written"] < keep["disk_gb_written"]
    # Removing the wait-based backpressure costs extra spill traffic.
    assert star["disk_gb_written"] < unbounded["disk_gb_written"]
    # Seek-paying unfused spill files cannot beat fused writes.
    assert unfused["seconds"] >= star["seconds"]
