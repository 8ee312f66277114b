"""Ablation: locality-aware scheduling and soft node affinity (§4.3.2).

The push shuffle pins merge tasks per worker and relies on locality for
the reduce stage.  Each arm is a placement name from
``repro.futures.config.PLACEMENT_POLICIES`` -- ``"default"`` avoids
blacklisted nodes, then honours affinity, then locality, then load;
``"load-only"`` places purely by load -- so no per-arm branching
reaches the benchmark.  Under load-only placement, merged blocks end up remote from
their reducers and extra bytes cross the network, slowing the job.
"""

import pytest

from repro.futures import RuntimeConfig
from repro.metrics import ResultTable

from benchmarks._harness import SCALED_TB, hdd_node, finish_bench, run_es_sort

NUM_NODES = 10
PARTITIONS = 200

#: (table label, ``RuntimeConfig.placement_policy`` name) per ablation arm.
ARMS = [
    ("locality+affinity", "default"),
    ("load-only", "load-only"),
]


def _run_once(placement_policy: str):
    config = RuntimeConfig(placement_policy=placement_policy)
    result, rt = run_es_sort(
        hdd_node(), NUM_NODES, "push*", PARTITIONS, SCALED_TB,
        runtime_config=config,
    )
    return result.sort_seconds, rt.cluster.network_bytes_sent


def _run_figure():
    table = ResultTable(
        "Ablation: locality + affinity scheduling (push*, 200 partitions)",
        ["scheduling", "seconds", "network_gb"],
    )
    for label, policy in ARMS:
        seconds, net = _run_once(policy)
        table.add_row(
            scheduling=label,
            seconds=seconds,
            network_gb=net / 1e9,
        )
    return table


@pytest.mark.benchmark(group="ablation")
def test_ablation_locality_scheduling(benchmark):
    table = benchmark.pedantic(_run_figure, rounds=1, iterations=1)
    finish_bench("ablation_scheduling", table, benchmark=benchmark)
    with_locality = table.find(scheduling="locality+affinity")
    without = table.find(scheduling="load-only")
    # Locality keeps bytes off the network and the job faster.
    assert with_locality["network_gb"] < without["network_gb"]
    assert with_locality["seconds"] < without["seconds"]
