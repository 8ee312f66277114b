"""A node crash under memory pressure: spill writes that outlive their
node, and the crash cells of the spill-heavy sort shape.

A fused spill write already in service on the disk (or the NIC) when
its node dies still completes.  The spill manager's epoch, bumped by
``clear()`` on death, marks such a write stale: it closes its trace span
with ``ok=False`` and registers nothing -- no spill slot, no directory
spill location, no shared-tier flag -- and leaves the in-flight count
alone.  A slot registered by a stale write would name an object whose
payload the failure handler later drops, and the restarted node would
restore it into a ``KeyError`` inside a task.
"""

import pytest

from repro.chaos import InvariantChecker
from repro.cluster import D3_2XLARGE, FailurePlan
from repro.common.units import MIB
from repro.futures import Runtime, RuntimeConfig
from repro.sort import SortJobConfig, run_sort

from tests.conftest import make_runtime


@pytest.mark.parametrize("backend", ["local", "shared"])
def test_spill_write_in_flight_at_death_registers_nothing(backend):
    """Kill a node 1 us after its first spill write begins; when that
    write lands, nothing may record the copy it carried."""
    rt = make_runtime(
        num_nodes=2, store_mib=4, config=RuntimeConfig(spill_backend=backend)
    )
    victim = rt.cluster.nodes[1]
    spill = rt.node_managers[victim.node_id].spill
    seen = {}

    def check():
        seen["slots"] = spill.spilled_objects()
        seen["in_flight"] = spill.in_flight
        seen["spilled_on_victim"] = [
            oid for oid, record in rt.directory.items()
            if victim.node_id in record.spill_nodes
        ]
        seen["shared"] = [
            oid for oid, record in rt.directory.items() if record.shared
        ]

    def watch(event):
        if (event.kind == "spill.write.begin"
                and event.node == str(victim.node_id) and "begin" not in seen):
            seen["begin"] = event.seq
            rt.env.call_later(1e-6, victim.fail)
        elif event.kind == "spill.write.end" and event.cause == seen.get("begin"):
            seen["ok"] = event.attrs["ok"]
            # Runs after the write's completion callback has finished.
            rt.env.call_later(0.0, check)

    rt.bus.subscribe(watch)
    make = rt.remote(lambda i: bytes([i]) * MIB)

    def driver():
        refs = [make.options(node=victim.node_id).remote(i) for i in range(8)]
        return [value[0] for value in rt.get(refs)]

    assert rt.run(driver) == list(range(8))
    assert seen["ok"] is False
    assert seen["slots"] == []
    assert seen["spilled_on_victim"] == []
    assert seen["shared"] == []
    assert seen["in_flight"] == 0
    assert spill.in_flight == 0


def _crash_sort(variant: str, at_time: float):
    """The ``sort-spill`` shape under a crash: three d3.2xlarge nodes with
    the store shrunk tenfold, 120 partitions of data 5.3x the aggregate
    store, outputs to disk, seed 0; N002 is down for 10 s."""
    node = D3_2XLARGE.with_object_store(D3_2XLARGE.object_store_bytes // 10)
    rt = Runtime.create(node, 3)
    data_bytes = int(5.3 * node.object_store_bytes * 3)
    result = run_sort(
        rt,
        SortJobConfig(
            variant=variant,
            num_partitions=120,
            partition_bytes=data_bytes // 120,
            virtual=True,
            output_to_disk=True,
            seed=0,
            failures=(FailurePlan(at_time=at_time, downtime=10.0, node_index=2),),
        ),
    )
    return result, rt


@pytest.mark.parametrize("at_time", [1.0, 20.0])
@pytest.mark.parametrize("variant", ["simple", "merge", "push", "push*"])
def test_crash_under_memory_pressure_validates(variant, at_time):
    # push and push* at 1 s each have a spill write in flight when the
    # node dies; a slot it registered would fail a task with a KeyError.
    # At 20 s, reduces find map and merge outputs lost; they wait for the
    # rebuild holding no fetch slot and no pin, so it is not starved.
    result, rt = _crash_sort(variant, at_time)
    assert result.validated
    assert rt.counters.get("node_failures") == 1
    rt.env.run()
    assert not InvariantChecker(rt).check()
