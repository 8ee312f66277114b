#!/usr/bin/env python
"""Run-time shuffle selection (§5.1.3, §7).

The most performant shuffle depends on data size, layout, and hardware.
Because every algorithm here is just a library function over the same
data plane, an application can pick per job -- no second system to
deploy.  This demo sweeps data sizes on one cluster and shows the
paper's empirical rule (``repro.plan.empirical_variant``, the plan
layer's one lowering rule) switching algorithms right where the
measured crossover is.

Run:  python examples/shuffle_selection.py
"""

from repro.cluster import ClusterSpec, I3_2XLARGE
from repro.common.units import GB, GIB
from repro.futures import Runtime
from repro.plan import ClusterProfile, empirical_variant
from repro.sort import SortJobConfig, run_sort


def measure(variant: str, data_bytes: int, partitions: int) -> float:
    node = I3_2XLARGE.with_object_store(2 * GIB)
    rt = Runtime(ClusterSpec.homogeneous(node, 4))
    result = run_sort(
        rt,
        SortJobConfig(
            variant=variant,
            num_partitions=partitions,
            partition_bytes=data_bytes // partitions,
            virtual=True,
            output_to_disk=False,
        ),
    )
    return result.sort_seconds


def main() -> None:
    node = I3_2XLARGE.with_object_store(2 * GIB)
    store = ClusterProfile.from_runtime(
        Runtime(ClusterSpec.homogeneous(node, 4))
    ).store_bytes

    print(f"{'data':>8s} {'parts':>6s} {'simple':>8s} {'push*':>8s} "
          f"{'winner':>8s} {'selector':>16s}")
    for data_gb, partitions in [(1, 40), (2, 80), (8, 160), (24, 320)]:
        data = data_gb * GB
        t_simple = measure("simple", data, partitions)
        t_push = measure("push*", data, partitions)
        winner = "simple" if t_simple < t_push else "push*"
        choice = empirical_variant(store, data, partitions)
        short = "simple" if choice == "simple" else "push*"
        print(
            f"{data_gb:6d}GB {partitions:6d} {t_simple:7.1f}s {t_push:7.1f}s "
            f"{winner:>8s} {short:>16s}"
        )
    print("\nthe selector's heuristic (fits-in-memory x partition count)"
          "\ntracks the measured winner without running both.")


if __name__ == "__main__":
    main()
