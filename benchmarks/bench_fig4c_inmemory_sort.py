"""Figure 4c: in-memory sort on 10 SSD nodes.

Data fits comfortably in aggregate object-store memory and outputs stay
in memory.  Paper shape: ES-simple is 20-70% *faster* than ES-push* at 80
partitions (merging only adds overhead when disk I/O is free), and
ES-push* wins once partitions reach 200+ (better pipelining of many small
tasks).  This crossover is the motivation for run-time shuffle selection
(`repro.plan.empirical_variant`, the plan layer's ``rule="empirical"``).
"""

import pytest

from repro.metrics import ResultTable

from benchmarks._harness import (
    column_by_variant,
    finish_bench,
    run_es_sort,
    ssd_node,
)

NUM_NODES = 10
PARTITIONS = [80, 200, 400]
VARIANTS = ["simple", "push*"]


def _run_figure():
    node = ssd_node()
    # ~30% of aggregate store memory: decidedly in-memory.
    data_bytes = int(0.3 * node.object_store_bytes * NUM_NODES)
    table = ResultTable(
        "Fig 4c: in-memory sort, 10 SSD nodes",
        ["variant", "partitions", "seconds", "spilled_gb"],
    )
    for parts in PARTITIONS:
        for variant in VARIANTS:
            result, rt = run_es_sort(
                node, NUM_NODES, variant, parts, data_bytes,
                output_to_disk=False,
            )
            table.add_row(
                variant=variant,
                partitions=parts,
                seconds=result.sort_seconds,
                spilled_gb=rt.counters.get("spill_bytes_written") / 1e9,
            )
    return table


@pytest.mark.benchmark(group="fig4c")
def test_fig4c_inmemory_sort(benchmark):
    table = benchmark.pedantic(_run_figure, rounds=1, iterations=1)
    finish_bench("fig4c_inmemory_sort", table, benchmark=benchmark)
    simple = column_by_variant(table, "simple")
    push = column_by_variant(table, "push*")
    # At 80 partitions simple wins (paper: by 20-70%).
    assert simple[80] < push[80]
    # The crossover: by 400 partitions push* is at least even/winning.
    assert push[400] <= simple[400]
    # And the gap moves monotonically in push*'s favour.
    ratios = [push[p] / simple[p] for p in PARTITIONS]
    assert ratios[0] > ratios[-1]
