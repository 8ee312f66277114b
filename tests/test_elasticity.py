"""The churn test plane: elastic membership and shared-tier durability.

Pins the elasticity contract from three directions:

- *Lifecycle*: the :class:`~repro.cluster.ClusterMembership` state
  machine and the runtime's ``add_node`` / ``drain_node`` /
  ``remove_node`` verbs (driver protection, event emission, scheduler
  visibility).
- *Churn properties*: hypothesis-generated join/drain/remove/crash
  sequences interleaved with task submission keep every invariant
  family green and never place a task on a departed node.
- *Durability*: with ``spill_backend="shared"`` a planned departure
  after spilling costs zero lineage recomputes, while the local-disk
  backend must re-execute the lost maps -- with the causal fault chain
  visible on the event bus.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import InvariantChecker
from repro.cluster import ClusterMembership
from repro.common.units import MB
from repro.futures import RuntimeConfig
from repro.obs.events import causal_chain

from benchmarks.bench_elastic_churn import run_churn_shuffle
from tests.conftest import make_runtime


# -- membership state machine -------------------------------------------------
class TestMembershipLifecycle:
    def test_initial_members_active(self):
        m = ClusterMembership(["a", "b"])
        assert m.active_nodes() == ["a", "b"]
        assert m.is_active("a") and m.schedulable("a")
        assert m.active_count() == 2 and not m.is_draining("a")

    def test_join_drain_remove_path(self):
        m = ClusterMembership(["a"])
        m.add("b")
        assert m.is_active("b")
        m.drain("b")
        assert m.is_draining("b") and m.schedulable("b")
        assert not m.is_active("b")
        m.remove("b")
        assert m.is_removed("b") and not m.schedulable("b")
        assert m.removed_nodes() == ["b"]

    def test_remove_straight_from_active(self):
        m = ClusterMembership(["a", "b"])
        m.remove("b")
        assert m.is_removed("b")

    def test_illegal_transitions_raise(self):
        m = ClusterMembership(["a"])
        with pytest.raises(ValueError):
            m.add("a")  # already a member
        with pytest.raises(ValueError):
            m.drain("x")  # not a member
        m.remove("a")
        with pytest.raises(ValueError):
            m.drain("a")  # removed nodes cannot drain
        with pytest.raises(ValueError):
            m.remove("a")  # already removed

    def test_snapshot_is_stringly_typed(self):
        m = ClusterMembership(["a", "b"])
        m.drain("b")
        assert m.snapshot() == {"a": "active", "b": "draining"}


# -- runtime verbs ------------------------------------------------------------
class TestRuntimeElasticity:
    def test_driver_node_protected(self):
        rt = make_runtime(num_nodes=2)
        driver = rt.driver_node_id
        with pytest.raises(ValueError):
            rt.drain_node(driver)
        with pytest.raises(ValueError):
            rt.remove_node(driver)

    def test_add_node_joins_fabric_and_membership(self):
        rt = make_runtime(num_nodes=2)
        new_id = rt.add_node()
        assert new_id in rt.node_managers
        assert rt.membership.is_active(new_id)
        assert rt.cluster.node(new_id).alive
        joins = [
            e for e in rt.bus.events
            if e.kind == "cluster.membership" and e.attrs["action"] == "join"
        ]
        assert joins and joins[-1].node == str(new_id)
        assert joins[-1].attrs["active"] == 3

    def test_new_node_receives_work(self):
        rt = make_runtime(num_nodes=1, cores=1)
        work = rt.remote(lambda i: i + 1)

        def driver():
            new_id = rt.add_node()
            refs = [work.options(node=new_id).remote(i) for i in range(3)]
            return rt.get(refs), new_id

        (values, new_id) = rt.run(driver)
        assert values == [1, 2, 3]
        placed = [
            e.node for e in rt.bus.events if e.kind == "task.place"
        ]
        assert str(new_id) in placed

    def test_drained_node_gets_no_new_placements(self):
        rt = make_runtime(num_nodes=3)
        victim = list(rt.cluster.node_ids)[-1]
        work = rt.remote(lambda i: i)

        def driver():
            rt.drain_node(victim)
            refs = [work.remote(i) for i in range(8)]
            return rt.get(refs)

        assert rt.run(driver) == list(range(8))
        placed_after_drain = [
            e.node for e in rt.bus.events if e.kind == "task.place"
        ]
        assert str(victim) not in placed_after_drain

    def test_remove_resubmits_interrupted_work(self):
        rt = make_runtime(num_nodes=2)
        victim = list(rt.cluster.node_ids)[1]
        slow = rt.remote(lambda i: i * 10).options(compute=5.0, node=victim)

        def driver():
            refs = [slow.remote(i) for i in range(2)]
            rt.sleep(0.5)  # let them start on the victim
            rt.remove_node(victim)
            return rt.get(refs)

        assert rt.run(driver) == [0, 10]
        removes = [
            e for e in rt.bus.events
            if e.kind == "cluster.membership" and e.attrs["action"] == "remove"
        ]
        assert len(removes) == 1
        assert removes[0].attrs["casualties"] >= 1
        assert rt.counters.get("tasks_resubmitted") >= 1

    def test_membership_counters(self):
        rt = make_runtime(num_nodes=2)
        nid = rt.add_node()
        rt.drain_node(nid)
        rt.remove_node(nid)
        assert rt.counters.get("nodes_added") == 1
        assert rt.counters.get("nodes_drained") == 1
        assert rt.counters.get("nodes_removed") == 1

    def test_static_run_adds_no_node(self):
        rt = make_runtime(num_nodes=2)
        work = rt.remote(lambda i: i)
        assert rt.run(lambda: rt.get([work.remote(i) for i in range(4)]))
        assert rt.counters.get("nodes_added") == 0
        assert not any(
            e.kind == "cluster.membership" for e in rt.bus.events
        )


# -- churn properties ---------------------------------------------------------
def _no_placement_after_departure(rt):
    """No ``task.place`` on a node once its removal event was emitted."""
    removed_at = {}
    for event in rt.bus.events:
        if (
            event.kind == "cluster.membership"
            and event.attrs.get("action") == "remove"
        ):
            removed_at.setdefault(event.node, event.seq)
    offenders = [
        (event.node, event.seq)
        for event in rt.bus.events
        if event.kind == "task.place"
        and event.node in removed_at
        and event.seq > removed_at[event.node]
    ]
    return offenders


class TestChurnProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(["batch", "join", "drain", "remove", "crash"]),
            min_size=3,
            max_size=9,
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_churn_sequences_keep_invariants(self, ops, seed):
        rng = random.Random(seed)
        config = RuntimeConfig(failure_detection_s=0.5)
        rt = make_runtime(num_nodes=3, config=config)
        work = rt.remote(lambda i: i * 3)
        refs = []
        expected = []

        def workers():
            return [
                nid for nid in rt.membership.active_nodes()
                if nid != rt.driver_node_id
                and rt.node_managers[nid].node.alive
            ]

        def driver():
            for op in ops:
                if op == "batch":
                    start = len(expected)
                    for i in range(start, start + 3):
                        refs.append(work.remote(i))
                        expected.append(i * 3)
                elif op == "join":
                    rt.add_node()
                elif op == "drain":
                    pool = workers()
                    if pool:
                        rt.drain_node(rng.choice(pool))
                elif op == "remove":
                    pool = [
                        nid for nid in rt.node_managers
                        if nid != rt.driver_node_id
                        and rt.membership.schedulable(nid)
                        and rt.node_managers[nid].node.alive
                    ]
                    if pool:
                        rt.remove_node(rng.choice(pool))
                elif op == "crash":
                    pool = workers()
                    if pool:
                        node = rt.cluster.node(rng.choice(pool))
                        node.fail()
                        rt.env.call_later(2.0, node.restart)
                rt.sleep(0.2)
            # A trailing batch exercises the post-churn cluster shape.
            start = len(expected)
            for i in range(start, start + 3):
                refs.append(work.remote(i))
                expected.append(i * 3)
            return rt.get(refs)

        assert rt.run(driver) == expected
        rt.env.run()  # drain restarts to quiesce
        violations = InvariantChecker(rt).check()
        assert not violations, violations
        assert _no_placement_after_departure(rt) == []

    def test_draining_node_removal_still_blocks_placement(self):
        """Drain-then-remove mid-run: departed node never re-used."""
        rt = make_runtime(num_nodes=3)
        victim = list(rt.cluster.node_ids)[-1]
        work = rt.remote(lambda i: i)

        def driver():
            rt.drain_node(victim)
            first = [work.remote(i) for i in range(4)]
            rt.get(first)
            rt.remove_node(victim)
            second = [work.remote(i) for i in range(4)]
            return rt.get(second)

        assert rt.run(driver) == list(range(4))
        assert _no_placement_after_departure(rt) == []


# -- shared-tier durability ---------------------------------------------------
class TestSharedTierDurability:
    def test_shared_backend_survives_departure_without_recompute(self):
        metrics = run_churn_shuffle("shared", join=False, maps_per_node=3)
        rt = metrics["runtime"]
        assert metrics["correct"]
        assert metrics["reconstructions"] == 0
        assert rt.counters.get("shared_bytes_read") > 0
        restores = [
            e for e in rt.bus.events
            if e.kind == "spill.restore.begin"
            and e.attrs.get("backend") == "shared"
        ]
        assert restores, "reduces must restore blocks from the shared tier"
        assert not InvariantChecker(rt).check()

    def test_local_backend_pays_lineage_recomputes(self):
        metrics = run_churn_shuffle("local", join=False, maps_per_node=3)
        rt = metrics["runtime"]
        assert metrics["correct"]
        assert metrics["reconstructions"] > 0
        # Every retry chains causally back to the departure event.
        retries = [e for e in rt.bus.events if e.kind == "task.retry"]
        assert retries
        index = {e.seq: e for e in rt.bus.events}
        chained = [
            e for e in retries
            if any(
                parent.kind == "cluster.membership"
                and parent.attrs.get("action") == "remove"
                for parent in causal_chain(e, index)
            )
        ]
        assert chained, "task.retry must link causally to the departure"
        assert not InvariantChecker(rt).check()

    def test_shared_spill_writes_tagged_on_bus(self):
        metrics = run_churn_shuffle("shared", join=False, maps_per_node=3)
        rt = metrics["runtime"]
        writes = [
            e for e in rt.bus.events
            if e.kind == "spill.write.begin"
            and e.attrs.get("backend") == "shared"
        ]
        assert writes
        assert rt.counters.get("shared_bytes_written") > 0
