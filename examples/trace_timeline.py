#!/usr/bin/env python
"""Export a Chrome/Perfetto trace of a shuffle's execution.

Runs a push-based sort, prints the per-phase summary, and writes a
``chrome://tracing``-compatible JSON timeline of every task, transfer
and spill on every node, with per-node usage counters alongside -- the
observability workflow used to eyeball pipelining in real deployments.
Both views are derived from the runtime's event bus.

Run:  python examples/trace_timeline.py [--out trace.json]
"""

import argparse

from repro.cluster import ClusterSpec, D3_2XLARGE
from repro.common.units import GB, GIB
from repro.futures import Runtime
from repro.obs import RunReport, write_chrome_trace
from repro.sort import SortJobConfig, run_sort


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="trace.json")
    parser.add_argument("--variant", default="push*")
    args = parser.parse_args()

    node = D3_2XLARGE.with_object_store(2 * GIB)
    rt = Runtime(ClusterSpec.homogeneous(node, 4))
    result = run_sort(
        rt,
        SortJobConfig(
            variant=args.variant,
            num_partitions=40,
            partition_bytes=(10 * GB) // 40,
            virtual=True,
        ),
    )
    print(f"sorted 10 GB with {args.variant} in {result.sort_seconds:.1f}s "
          f"(simulated)\n")
    print(RunReport(rt.bus.events).phase_table().render())
    count = write_chrome_trace(rt.bus.events, args.out)
    print(f"\nwrote {count} span events to {args.out}")
    print("open chrome://tracing or https://ui.perfetto.dev and load it")


if __name__ == "__main__":
    main()
