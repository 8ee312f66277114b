"""Golden determinism: the policy-plane refactor is behaviour-preserving.

The digests below were captured from the pre-refactor data plane (the
seed behaviour: placement, spilling, fair-share dispatch, and retry
pacing hard-coded in ``runtime.py``/``scheduler.py``/``spilling.py``).
The default policy stack must reproduce the exact same filtered event
stream -- every placement, every spill write/restore, every retry, at
the same simulated timestamps -- or these tests fail.

The digest deliberately excludes event ``seq``/``cause`` numbers and
any non-digest event kinds: the refactor *adds* ``policy.decision``
events, which renumber the stream without changing behaviour.
"""

import hashlib
import random

from repro.chaos.injector import ChaosInjector
from repro.chaos.spec import FaultKind, matrix_plan
from repro.chaos.harness import (
    default_node_spec,
    expected_output,
    make_inputs,
    submit_variant,
)
from repro.cluster import D3_2XLARGE, I3_2XLARGE, FailurePlan
from repro.common.units import MB
from repro.futures import RetryPolicy, Runtime, RuntimeConfig
from repro.sort import SortJobConfig, run_sort

from tests.conftest import make_runtime

#: The event kinds whose stream defines observable data-plane behaviour:
#: where tasks ran, what spilled and restored, what fell back to disk,
#: and which tasks retried.  ``seq``/``cause`` are excluded on purpose.
DIGEST_KINDS = (
    "task.place",
    "task.park",
    "spill.write.begin",
    "spill.write.end",
    "spill.restore.begin",
    "spill.fallback",
    "task.retry",
    "object.create",
)

GOLDEN_SORT_DIGEST = "6c9ea3eebc9f3616787ca86d3857b36a0ac5a7d35f11246300acbf461acd5e52"
GOLDEN_CHAOS_DIGEST = "85b3dde0667f3fbff2b666047d751dd947b917fce83fb81e88fa092691afdbbf"
#: The smoke-sized spill shape (``push*``, data 5.3x the aggregate store,
#: outputs to disk), captured before the object store learned to skip
#: its cached-copy scan when nothing is evictable.
GOLDEN_SPILL_SHAPE_DIGEST = "cc68b047aeef89b2afe29d0d2f1a83e5c6b861482efd21738c3cc7edfcb3724e"
#: The other three smoke-sized sort shapes of the end-to-end ledger,
#: captured before the round-based shuffle became one implementation.
GOLDEN_INMEM_FINE_SHAPE_DIGEST = "f658cc22ce0919d040d6f1394b7aaff891a382033f108a5adb7e5b01f933665e"
GOLDEN_REAL_SHAPE_DIGEST = "30dc728b90816e557675d78c173366a236134dd6d4728691fcb30eaa56f5fabf"
GOLDEN_RECOVER_SHAPE_DIGEST = "93d0a62c9f3496daba5847214b455f58adf29e91b7c5311da4a8e6c5374f2336"


def digest_events(events) -> str:
    """A stable digest of the behaviour-defining event stream."""
    lines = []
    for event in events:
        if event.kind not in DIGEST_KINDS:
            continue
        attrs = {k: v for k, v in sorted(event.attrs.items())}
        lines.append(
            f"{event.ts!r}|{event.kind}|{event.node}|{event.job}"
            f"|{event.task}|{event.obj}|{attrs}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _sort_run(config: RuntimeConfig = None) -> tuple:
    """A fig4c-style fixed-seed in-memory sort with store pressure."""
    rt = make_runtime(num_nodes=3, store_mib=256, config=config)
    result = run_sort(
        rt,
        SortJobConfig(
            variant="push*",
            num_partitions=12,
            partition_bytes=30 * MB,
            virtual=True,
        ),
    )
    assert result.validated
    return digest_events(rt.bus.events), rt


def _chaos_run() -> str:
    """A push shuffle under a node crash: placements, retries, blacklist."""
    rt = Runtime.create(
        default_node_spec(),
        4,
        config=RuntimeConfig(
            retry_policy=RetryPolicy(max_attempts=8),
            blacklist_cooldown_s=5.0,
        ),
    )
    ChaosInjector(rt, matrix_plan(FaultKind.NODE_CRASH, seed=0))
    inputs = make_inputs(0, 8, 24)

    def driver():
        return rt.get(submit_variant("push", rt, inputs, 4))

    values = rt.run(driver)
    rt.env.run()  # drain the node restart
    assert tuple(tuple(v) for v in values) == expected_output(0)
    assert rt.bus.events_of("task.retry"), "the crash must force retries"
    return digest_events(rt.bus.events)


def _shape_run(node, num_nodes, variant, partitions, data_bytes, *,
               virtual=True, output_to_disk, failures=()) -> tuple:
    """One seed-0 sort; returns the digest of its behaviour-defining
    events and final counters, and the runtime."""
    rt = Runtime.create(node, num_nodes)
    result = run_sort(
        rt,
        SortJobConfig(
            variant=variant,
            num_partitions=partitions,
            partition_bytes=data_bytes // partitions,
            virtual=virtual,
            output_to_disk=output_to_disk,
            failures=failures,
            seed=0,
        ),
    )
    assert result.validated
    stats = sorted(rt.stats().items())
    digest = hashlib.sha256(
        f"{digest_events(rt.bus.events)}|{stats!r}".encode()
    ).hexdigest()
    return digest, rt


def _store_tenth(node):
    return node.with_object_store(node.object_store_bytes // 10)


def _spill_shape_run() -> str:
    """Two d3.2xlarge nodes with the store shrunk tenfold, 40 partitions
    of data 5.3x the aggregate store: the store evicts cached copies,
    spills and restores.  Most eviction scans find nothing to drop and a
    few do, so the digest pins both paths."""
    node = _store_tenth(D3_2XLARGE)
    digest, rt = _shape_run(
        node, 2, "push*", 40, int(5.3 * node.object_store_bytes * 2),
        output_to_disk=True,
    )
    assert rt.stats()["objects_evicted"] > 0
    return digest


def _inmem_fine_shape_run() -> str:
    """Ten i3.2xlarge nodes (store shrunk tenfold), ``simple`` over 32
    partitions of data 0.3x the aggregate store, kept in memory."""
    node = _store_tenth(I3_2XLARGE)
    digest, _rt = _shape_run(
        node, 10, "simple", 32, int(0.3 * node.object_store_bytes * 10),
        output_to_disk=False,
    )
    return digest


def _real_shape_run() -> str:
    """Eight chaos-sized nodes, ``push*`` over 16 partitions of 50 MB of
    real numpy records, outputs to disk."""
    digest, _rt = _shape_run(
        default_node_spec(), 8, "push*", 16, 50 * 10**6,
        virtual=False, output_to_disk=True,
    )
    return digest


def _recover_shape_run() -> str:
    """The in-memory shape at 30 partitions with one worker, drawn from
    the seed, killed 1 s into the sort for 5 s."""
    node = _store_tenth(I3_2XLARGE)
    victim = random.Random(0).randrange(1, 10)
    digest, rt = _shape_run(
        node, 10, "simple", 30, int(0.3 * node.object_store_bytes * 10),
        output_to_disk=False,
        failures=(FailurePlan(at_time=1.0, downtime=5.0, node_index=victim),),
    )
    assert rt.counters.get("node_failures") == 1
    return digest


def test_sort_digest_matches_pre_refactor_behaviour():
    digest, _rt = _sort_run()
    assert digest == GOLDEN_SORT_DIGEST


def test_chaos_digest_matches_pre_refactor_behaviour():
    assert _chaos_run() == GOLDEN_CHAOS_DIGEST


def test_spill_shape_digest_matches_golden():
    assert _spill_shape_run() == GOLDEN_SPILL_SHAPE_DIGEST


def test_inmem_fine_shape_digest_matches_golden():
    assert _inmem_fine_shape_run() == GOLDEN_INMEM_FINE_SHAPE_DIGEST


def test_real_shape_digest_matches_golden():
    assert _real_shape_run() == GOLDEN_REAL_SHAPE_DIGEST


def test_recover_shape_digest_matches_golden():
    assert _recover_shape_run() == GOLDEN_RECOVER_SHAPE_DIGEST


def test_digest_is_deterministic_across_runs():
    assert _chaos_run() == _chaos_run()


def test_elasticity_merged_but_unused_is_zero_cost():
    """The elasticity plane is free when off: a static-shape run under
    the *default* config (``autoscale_policy="none"``, local spill) is
    event-for-event identical to the pre-elasticity golden stream --
    membership tracking adds no simulation events, no bus records, and
    no digest drift."""
    digest, rt = _sort_run(RuntimeConfig())
    assert digest == GOLDEN_SORT_DIGEST
    assert not any(e.kind == "cluster.membership" for e in rt.bus.events)
    assert rt.counters.get("nodes_added") == 0
    assert rt.counters.get("nodes_removed") == 0
    # Membership still *knows* the static shape, it just never acts.
    assert rt.membership.active_count() == 3
    assert rt.membership.snapshot() == {
        str(nid): "active" for nid in rt.cluster.node_ids
    }
