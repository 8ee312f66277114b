"""Lowering regret: the planner's one rule scored against the simulator.

``variant="auto"`` lowers through one rule, the paper's two-way
crossover (:func:`repro.plan.empirical_variant`, §5.1.3 and §7): simple
when the data fits in memory and partitions are few, push otherwise.
This benchmark checks that rule against what the simulator says on a
small grid over the paper's axes:

- 4 nodes, SSD (i3.2xlarge) or HDD (d3.2xlarge), stores scaled as in
  the Fig 4 benches;
- data at 0.3x the aggregate store (outputs in memory, the Fig 4c
  regime) or 2x (outputs to disk, an external sort);
- 16, 48 or 160 partitions.

Each cell sorts under ``simple``, ``merge``, ``magnet`` and ``push*``
(the sort's names; the planner's ``riffle`` is the sort's ``merge``, and
its ``push`` lowers to ``push*``, which frees map outputs eagerly).  The
rule's pick is lowered from a :class:`repro.plan.ShuffleExpr` against
the cluster's profile, the same path ``variant="auto"`` jobs take.  A
cell's *regret* is the pick's job time over the best variant's, minus
one.  The tier-1 test ``tests/test_plan.py`` pins the rule's picks and
regret on the 16- and 48-partition cells with :func:`regret_grid`.
"""

from __future__ import annotations

import sys
from typing import Sequence

import pytest

from repro.metrics import ResultTable
from repro.plan import ClusterProfile, JobShape, ShuffleExpr

from benchmarks._harness import finish_bench, hdd_node, run_es_sort, ssd_node

NUM_NODES = 4
DISKS = {"ssd": ssd_node, "hdd": hdd_node}
#: Data as a multiple of the aggregate object store.
DATA_RATIOS = (0.3, 2.0)
PARTITIONS = (16, 48, 160)
VARIANTS = ("simple", "merge", "magnet", "push*")

#: The sort variant each planner variant runs as.
SORT_VARIANT = {"simple": "simple", "riffle": "merge", "magnet": "magnet",
                "push": "push*"}


def regret_grid(partition_counts: Sequence[int] = PARTITIONS) -> ResultTable:
    """Every variant's sort seconds per cell, the best variant, the
    rule's pick and its regret."""
    table = ResultTable(
        "Lowering regret: the empirical rule against every variant, "
        f"{NUM_NODES} nodes",
        ["disk", "data", "partitions", *VARIANTS, "best", "pick", "regret"],
    )
    for disk, make_node in DISKS.items():
        node = make_node()
        for ratio in DATA_RATIOS:
            data_bytes = int(ratio * node.object_store_bytes * NUM_NODES)
            for parts in partition_counts:
                seconds = {}
                for variant in VARIANTS:
                    result, rt = run_es_sort(
                        node, NUM_NODES, variant, parts, data_bytes,
                        output_to_disk=ratio > 1,
                    )
                    seconds[variant] = result.sort_seconds
                shape = JobShape(
                    total_bytes=data_bytes, num_maps=parts, num_reduces=parts
                )
                plan = ShuffleExpr(shape=shape).lower(
                    ClusterProfile.from_runtime(rt)
                )
                pick = SORT_VARIANT[plan.variant]
                best = min(VARIANTS, key=seconds.__getitem__)
                table.add_row(
                    disk=disk, data=f"{ratio}x", partitions=parts,
                    **seconds, best=best, pick=pick,
                    regret=seconds[pick] / seconds[best] - 1.0,
                )
    return table


@pytest.mark.benchmark(group="planning")
def test_lowering_regret(benchmark):
    table = benchmark.pedantic(regret_grid, rounds=1, iterations=1)
    finish_bench("lowering_regret", table, benchmark=benchmark)
    # The rule stays within its measured worst case on every cell.
    assert max(table.column("regret")) < 0.6


def main() -> int:
    """``python benchmarks/bench_lowering_regret.py``: print the grid."""
    table = regret_grid()
    print(table.render())
    regrets = table.column("regret")
    print(f"worst regret {max(regrets):.1%}, "
          f"mean {sum(regrets) / len(regrets):.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
