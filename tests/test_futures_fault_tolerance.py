"""Lineage reconstruction and failure handling (§4.2.3, §5.1.5)."""

import numpy as np
import pytest

from repro.common.errors import ObjectLostError, RetryExhaustedError
from repro.common.units import MB
from repro.futures import RuntimeConfig, lineage
from repro.futures.node_manager import FETCH_RETRY_BACKOFF_S

from tests.conftest import make_runtime

# Every runtime these tests build must satisfy the data-plane invariants
# (refcount balance, location consistency, reconstructable lineage) once
# it quiesces -- even after the failures injected below.
pytestmark = pytest.mark.usefixtures("check_invariants")


def _blob(mb):
    return np.zeros(int(mb * MB), dtype=np.uint8)


def _fast_detect(**kwargs):
    return RuntimeConfig(failure_detection_s=2.0, **kwargs)


class TestLineageReconstruction:
    def test_lost_object_reconstructed_for_get(self):
        rt = make_runtime(num_nodes=3, config=_fast_detect())
        victim = rt.cluster.node_ids[1]
        make = rt.remote(lambda: "precious").options(node=victim)

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            rt.cluster.node(victim).fail()
            value = rt.get(ref)  # must re-execute the task elsewhere
            return value, rt.task_attempts(ref)

        value, attempts = rt.run(driver)
        assert value == "precious"
        assert attempts == 2
        assert rt.counters.get("tasks_resubmitted") >= 1

    def test_reconstruction_is_transitive(self):
        """Losing a chain of objects re-runs the whole upstream lineage."""
        rt = make_runtime(num_nodes=3, config=_fast_detect())
        victim = rt.cluster.node_ids[2]
        base = rt.remote(lambda: 1).options(node=victim)
        inc = rt.remote(lambda x: x + 1).options(node=victim)

        def driver():
            a = base.remote()
            b = inc.remote(a)
            c = inc.remote(b)
            rt.wait([c], num_returns=1)
            rt.cluster.node(victim).fail()
            return rt.get(c)

        assert rt.run(driver) == 3
        assert rt.counters.get("tasks_resubmitted") >= 3

    def test_running_tasks_on_dead_node_requeued(self):
        rt = make_runtime(num_nodes=2, config=_fast_detect())
        victim = rt.cluster.node_ids[1]
        slow = rt.remote(lambda: "done").options(node=victim, compute=30.0)

        def driver():
            ref = slow.remote()
            rt.sleep(5.0)  # task is mid-execution
            rt.cluster.node(victim).fail()
            return rt.get(ref)

        assert rt.run(driver) == "done"
        # Re-ran from scratch on the surviving node.
        assert rt.now >= 30.0 + 5.0

    def test_spilled_data_on_dead_node_is_lost_and_rebuilt(self):
        rt = make_runtime(num_nodes=2, store_mib=32, config=_fast_detect())
        victim = rt.cluster.node_ids[1]
        make = rt.remote(lambda i: (i, _blob(16))).options(node=victim)

        def driver():
            refs = [make.remote(i) for i in range(6)]  # forces spilling
            rt.wait(refs, num_returns=len(refs))
            rt.cluster.node(victim).fail()
            return [tag for tag, _ in rt.get(refs)]

        assert rt.run(driver) == list(range(6))

    def test_object_with_surviving_copy_needs_no_reconstruction(self):
        """A copy fetched to another node keeps the object alive."""
        rt = make_runtime(num_nodes=2, config=_fast_detect())
        a, b = rt.cluster.node_ids
        make = rt.remote(lambda: _blob(10)).options(node=b)
        touch = rt.remote(lambda x: x.nbytes).options(node=a)

        def driver():
            src = make.remote()
            rt.get(touch.remote(src))  # copies the object to node a
            rt.cluster.node(b).fail()
            rt.sleep(5.0)
            return rt.get(touch.remote(src))

        assert rt.run(driver) == 10 * MB
        assert rt.counters.get("tasks_resubmitted") == 0

    def test_lost_put_object_is_unrecoverable(self):
        """put() objects have no lineage; losing them is fatal for get."""
        config = RuntimeConfig(failure_detection_s=2.0)
        rt = make_runtime(num_nodes=2, config=config)

        def driver():
            ref = rt.put("unrecoverable")
            rt.cluster.node(rt.driver_node_id).fail()
            rt.sleep(5.0)
            with pytest.raises(ObjectLostError):
                rt.get(ref)
            return True

        assert rt.run(driver)

    def test_failure_detection_delay_gates_recovery(self):
        """Recovery cannot complete before the heartbeat timeout elapses."""
        config = RuntimeConfig(failure_detection_s=20.0)
        rt = make_runtime(num_nodes=2, config=config)
        victim = rt.cluster.node_ids[1]
        make = rt.remote(lambda: "v").options(node=victim, compute=0.1)

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            fail_time = rt.timestamp()
            rt.cluster.node(victim).fail()
            value = rt.get(ref)
            return rt.timestamp() - fail_time, value

        recovery, value = rt.run(driver)
        assert value == "v"
        assert recovery >= 20.0

    def test_node_restart_rejoins_cluster(self):
        rt = make_runtime(num_nodes=2, config=_fast_detect())
        victim = rt.cluster.node_ids[1]
        pinned = rt.remote(lambda: "here").options(node=victim)

        def driver():
            rt.cluster.node(victim).fail()
            rt.sleep(3.0)
            rt.cluster.node(victim).restart()
            return rt.get(pinned.remote())

        assert rt.run(driver) == "here"

    def test_double_failure_still_recovers(self):
        rt = make_runtime(num_nodes=3, config=_fast_detect())
        victim = rt.cluster.node_ids[1]
        make = rt.remote(lambda: 99).options(node=victim)

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            rt.cluster.node(victim).fail()
            rt.sleep(1.0)
            rt.cluster.node(victim).restart()
            rt.sleep(1.0)
            rt.cluster.node(victim).fail()
            return rt.get(ref)

        assert rt.run(driver) == 99


class TestFailureDuringShuffleTraffic:
    def test_task_waiting_on_lost_argument_holds_nothing(self):
        """A consumer whose second argument dies while it fetches the
        first waits for the rebuild holding no fetch slot and no pin: a
        task that kept them could starve the rebuild of both."""
        rt = make_runtime(num_nodes=3, config=_fast_detect())
        source, victim, sink = rt.cluster.node_ids
        big = rt.remote(lambda: _blob(80)).options(node=source)
        small = rt.remote(lambda: _blob(1)).options(node=victim)
        consume = rt.remote(lambda x, y: x.nbytes + y.nbytes).options(node=sink)
        manager = rt.node_managers[sink]
        held = {}

        def driver():
            srcs = [big.remote(), small.remote()]
            rt.wait(srcs, num_returns=len(srcs))
            out = consume.remote(*srcs)
            rt.sleep(0.3)  # mid-way through the 0.64 s fetch of ``big``
            rt.cluster.node(victim).fail()
            rt.sleep(1.0)  # ``big`` has arrived; ``small`` has no live copy
            held["slots"] = manager._fetch_sem.in_use
            held["pinned"] = manager.store.pinned_bytes
            return rt.get(out)

        assert rt.run(driver) == 81 * MB
        assert held == {"slots": 0, "pinned": 0}
        assert rt.counters.get("lineage_reconstructions") == 1

    def test_consumer_survives_source_death_mid_job(self):
        """Consumers fetching from a node that dies retry and recover."""
        rt = make_runtime(num_nodes=3, config=_fast_detect())
        victim = rt.cluster.node_ids[1]
        sink_node = rt.cluster.node_ids[2]
        make = rt.remote(lambda i: (i, _blob(20))).options(node=victim)
        consume = rt.remote(lambda *blocks: sum(t for t, _ in blocks)).options(
            node=sink_node
        )

        def driver():
            srcs = [make.remote(i) for i in range(6)]
            rt.wait(srcs, num_returns=len(srcs))
            out = consume.remote(*srcs)
            rt.cluster.node(victim).fail()
            return rt.get(out)

        assert rt.run(driver) == sum(range(6))

    def test_spilled_source_dying_while_the_fetch_queues(self):
        """A fetch picks its source before its allocation is granted.  If
        that source dies meanwhile, its spill files are gone: the fetch
        treats it as a failed transfer, backs off and finds the object
        lost, so lineage rebuilds it and the consumer completes."""
        rt = make_runtime(num_nodes=3, store_mib=100, config=_fast_detect())
        _driver_node, source, sink = rt.cluster.node_ids
        make = rt.remote(lambda: _blob(60))
        consume = rt.remote(lambda x: x.nbytes).options(node=sink)
        observed = {}

        def driver():
            spilled = make.options(node=source).remote()
            rt.wait([spilled], num_returns=1)
            # A second 60 MB object spills the first; a ballast on the
            # sink makes the fetch's allocation queue behind its spill.
            others = [make.options(node=node).remote() for node in (source, sink)]
            rt.wait(others, num_returns=2)
            observed["on_disk_only"] = rt.node_managers[source].spill.is_spilled(
                spilled.object_id
            ) and not rt.node_managers[source].store.contains(spilled.object_id)
            out = consume.remote(spilled)
            rt.sleep(0.05)
            observed["queued"] = len(rt.node_managers[sink].store._queue)
            rt.cluster.node(source).fail()
            return rt.get(out)

        assert rt.run(driver) == 60 * MB
        assert observed == {"on_disk_only": True, "queued": 1}
        assert rt.counters.get("lineage_reconstructions") == 1


class TestRetries:
    def test_retry_exhaustion_surfaces_typed_error(self, monkeypatch):
        """Past the attempt cap a lost task fails with a typed error."""
        monkeypatch.setattr(lineage, "MAX_TASK_ATTEMPTS", 1)
        rt = make_runtime(num_nodes=3, config=_fast_detect())
        victim = rt.cluster.node_ids[1]
        make = rt.remote(lambda: "precious").options(node=victim)

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            rt.cluster.node(victim).fail()
            with pytest.raises(RetryExhaustedError):
                rt.get(ref)

        rt.run(driver)
        assert rt.counters.get("tasks_resubmitted") == 0
        assert rt.counters.get("tasks_failed") >= 1

    def test_one_crash_is_recovered_by_default(self):
        """The default config re-executes lost work at once after the
        detection delay: no option has to be set for recovery."""
        rt = make_runtime(num_nodes=3, config=_fast_detect())
        victim = rt.cluster.node_ids[1]
        make = rt.remote(lambda: "precious").options(node=victim)

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            failed_at = rt.timestamp()
            rt.cluster.node(victim).fail()
            return rt.get(ref), rt.timestamp() - failed_at

        value, recovery = rt.run(driver)
        assert value == "precious"
        assert rt.counters.get("tasks_resubmitted") == 1
        # The detection delay, the get's one fetch-retry pause and a
        # fresh execution: the resubmit itself waits for nothing.
        assert recovery == pytest.approx(
            2.0 + FETCH_RETRY_BACKOFF_S, abs=0.01
        )

    def test_each_resubmit_emits_one_retry_event(self):
        """A retried task's stream carries one ``task.retry`` per
        resubmit, each for a new attempt, and no retry verdict."""
        rt = make_runtime(num_nodes=3, config=_fast_detect())
        victim = rt.cluster.node_ids[2]
        base = rt.remote(lambda: 1).options(node=victim)
        inc = rt.remote(lambda x: x + 1).options(node=victim)

        def driver():
            c = inc.remote(inc.remote(base.remote()))
            rt.wait([c], num_returns=1)
            rt.cluster.node(victim).fail()
            return rt.get(c)

        assert rt.run(driver) == 3
        retries = rt.bus.events_of("task.retry")
        assert len(retries) == rt.counters.get("tasks_resubmitted") == 3
        attempts = [(e.task, e.attrs["attempt"]) for e in retries]
        assert len(set(attempts)) == len(attempts)
        assert all(attempt == 2 for _task, attempt in attempts)
        assert not [
            e
            for e in rt.bus.events_of("policy.decision")
            if e.attrs.get("policy") == "retry"
        ]
