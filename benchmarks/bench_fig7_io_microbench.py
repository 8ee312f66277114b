"""Figure 7: small-I/O mitigations in the data plane (§5.3.2).

Single node with an sc1-like cold HDD and a deliberately small object
store.  A producer fleet creates several store-capacities' worth of small
objects (forcing spills), then a consumer fleet reads them all back.
Paper shape:

- with write fusing, total run time is nearly flat across object sizes;
- with fusing off, 1 MB objects are ~25% slower and 100 KB objects are
  many times slower (every object pays a seek);
- pipelined argument prefetching cuts run time substantially vs fetching
  arguments only once a core is held.
"""

import pytest

from repro.cluster import SC1_MICROBENCH
from repro.common.units import KB, MB, MIB
from repro.futures import RuntimeConfig
from repro.metrics import ResultTable

from benchmarks._harness import finish_bench, make_runtime

TOTAL_BYTES = 1000 * MB  # 16 GB : 1 GB in the paper, scaled 4x
STORE_BYTES = 256 * MIB
OBJECT_SIZES = [100 * KB, 333 * KB, 1000 * KB]


class _Blob:
    """A declared-size payload (content is irrelevant to the data plane)."""

    __slots__ = ("size_bytes",)

    def __init__(self, size_bytes: int) -> None:
        self.size_bytes = size_bytes


def _run_once(object_bytes: int, fusing: bool, prefetch: bool) -> float:
    config = RuntimeConfig(
        spill_policy="default" if fusing else "unfused",
        enable_prefetching=prefetch,
        fuse_min_bytes=100 * MB,
        # One restore stream, as in the paper's single-process
        # microbenchmark: concurrent fetchers would interleave file
        # accesses and turn sequential restores into seek storms.
        prefetch_concurrency=1,
    )
    import dataclasses

    node = dataclasses.replace(SC1_MICROBENCH, cores=1).with_object_store(
        STORE_BYTES
    )
    # Via the harness so finish_bench can stamp the result (counters,
    # simulated time, fingerprint, critical path) from the last run.
    rt = make_runtime(node, 1, config=config)
    count = TOTAL_BYTES // object_bytes
    per_task = max(1, (32 * MB) // object_bytes)
    num_tasks = count // per_task

    def produce(n, size):
        for _ in range(n):
            yield _Blob(size)

    def consume(*blobs):
        return len(blobs)

    producer = rt.remote(produce, num_returns=per_task, compute=1e-3)
    # Consumer compute is sized near one batch's restore time so that
    # prefetching (restoring batch k+1 while batch k computes) has
    # something to overlap.
    consumer = rt.remote(consume, compute=0.3)

    def driver():
        created = [
            producer.remote(per_task, object_bytes) for _ in range(num_tasks)
        ]
        flat = [ref for refs in created for ref in refs]
        rt.wait(flat, num_returns=len(flat))
        consumed = [
            consumer.remote(*flat[i : i + per_task])
            for i in range(0, len(flat), per_task)
        ]
        rt.wait(consumed, num_returns=len(consumed))
        return None

    rt.run(driver)
    return rt.now


def _run_figure():
    table = ResultTable(
        "Fig 7: spill/restore microbenchmark on sc1-like HDD",
        ["object_kb", "fusing", "prefetch", "seconds"],
    )
    for size in OBJECT_SIZES:
        for fusing in (True, False):
            seconds = _run_once(size, fusing=fusing, prefetch=True)
            table.add_row(
                object_kb=size // KB, fusing=fusing, prefetch=True,
                seconds=seconds,
            )
    # Prefetch ablation at one size (fusing on).
    table.add_row(
        object_kb=333, fusing=True, prefetch=False,
        seconds=_run_once(333 * KB, fusing=True, prefetch=False),
    )
    return table


@pytest.mark.benchmark(group="fig7")
def test_fig7_io_mitigations(benchmark):
    table = benchmark.pedantic(_run_figure, rounds=1, iterations=1)
    finish_bench("fig7_io_microbench", table, benchmark=benchmark)

    def cell(object_kb, fusing, prefetch=True):
        return table.find(object_kb=object_kb, fusing=fusing, prefetch=prefetch)[
            "seconds"
        ]

    # Fusing keeps run time nearly flat across object sizes.
    fused = [cell(s // KB, True) for s in OBJECT_SIZES]
    assert max(fused) < 1.5 * min(fused)
    # Without fusing, small objects collapse into the seek wall.
    assert cell(100, False) > 3.0 * cell(100, True)
    # ... and even 1 MB objects pay a visible penalty.
    assert cell(1000, False) > 1.15 * cell(1000, True)
    # The penalty grows as objects shrink.
    assert cell(100, False) > cell(333, False) > cell(1000, False)
    # Prefetching overlaps restores with execution (paper: 60-80% saved).
    assert cell(333, True, prefetch=False) > 1.3 * cell(333, True, prefetch=True)
