"""Advanced runtime behaviours: generators vs bulk returns, retention,
introspection, straggler detection, and scheduler policies."""

import numpy as np
import pytest

from repro.common.units import MB
from repro.futures import Runtime, RuntimeConfig

from tests.conftest import make_runtime


def _blob(mb):
    return np.zeros(int(mb * MB), dtype=np.uint8)


class TestGenerators:
    def test_generator_bounds_peak_memory_vs_bulk_return(self):
        """§4.3.1: a generator stores each yielded block as it is
        produced, so earlier outputs can spill while later ones are still
        being computed; a bulk return materialises everything at once."""

        def run(as_generator):
            rt = make_runtime(num_nodes=1, store_mib=256)

            if as_generator:
                def produce():
                    for _ in range(10):
                        yield _blob(40)
            else:
                def produce():
                    return [_blob(40) for _ in range(10)]

            task = rt.remote(produce, num_returns=10)

            def driver():
                refs = task.remote()
                rt.wait(refs, num_returns=len(refs))
                return True

            rt.run(driver)
            return rt.driver_manager.store.peak_used_bytes

        # Both must complete; the generator's peak footprint is no worse.
        assert run(True) <= run(False)

    def test_generator_outputs_usable_before_task_completes(self):
        rt = make_runtime(num_nodes=1)

        def produce():
            yield "first"
            yield "second"

        slow_tail = rt.remote(produce, num_returns=2, compute=10.0)

        def driver():
            first, second = slow_tail.remote()
            ready, _ = rt.wait([first], num_returns=1)
            t_first = rt.timestamp()
            rt.wait([second], num_returns=1)
            t_second = rt.timestamp()
            return t_first, t_second

        t_first, t_second = rt.run(driver)
        # The first yield lands roughly half a task earlier.
        assert t_first < t_second
        assert t_second - t_first > 2.0


class TestRetention:
    def test_retain_until_keeps_then_releases(self):
        rt = make_runtime(num_nodes=1)
        make = rt.remote(lambda: _blob(1))
        gate = rt.remote(lambda: "done").options(compute=5.0)

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            out = gate.remote()
            rt.retain_until([ref], [out])
            del ref  # our own handle gone; retention keeps it alive
            rt.sleep(1.0)
            alive_mid = rt.counters.get("objects_evicted")
            rt.wait([out], num_returns=1)
            rt.sleep(1.0)
            return alive_mid, rt.counters.get("objects_evicted")

        evicted_mid, evicted_end = rt.run(driver)
        assert evicted_mid == 0
        assert evicted_end >= 1

    def test_retain_until_empty_until_releases_immediately(self):
        rt = make_runtime(num_nodes=1)
        make = rt.remote(lambda: 1)

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            rt.retain_until([ref], [])
            del ref
            rt.sleep(0.1)
            return rt.counters.get("objects_evicted")

        assert rt.run(driver) >= 1


class TestStragglerDetection:
    def test_wait_timeout_exposes_stragglers(self):
        """§4.3.2: wait with a timeout identifies tasks that have not
        completed, enabling library-level speculative execution."""
        rt = make_runtime(num_nodes=2)
        fast = rt.remote(lambda: "f").options(compute=0.5)
        slow = rt.remote(lambda: "s").options(compute=60.0)

        def driver():
            refs = [fast.remote() for _ in range(6)] + [slow.remote()]
            ready, stragglers = rt.wait(
                refs, num_returns=len(refs), timeout=5.0
            )
            return len(ready), len(stragglers)

        ready, stragglers = rt.run(driver)
        assert ready == 6
        assert stragglers == 1


class TestSchedulerPolicies:
    def test_least_loaded_spreads_independent_tasks(self):
        rt = make_runtime(num_nodes=4)
        work = rt.remote(lambda: 1).options(compute=1.0)

        def driver():
            refs = [work.remote() for _ in range(16)]
            rt.wait(refs, num_returns=len(refs))
            return True

        rt.run(driver)
        # 16 one-second tasks over 4 nodes x 4 cores: near-perfect spread.
        assert rt.now < 1.5

    def test_affinity_beats_locality(self):
        rt = make_runtime(num_nodes=3)
        a, b, c = rt.cluster.node_ids
        make = rt.remote(lambda: _blob(20)).options(node=b)
        probe = rt.remote(lambda x: x.nbytes)

        def driver():
            src = make.remote()
            rt.wait([src], num_returns=1)
            # locality says b, affinity says c: affinity wins.
            pinned = probe.options(node=c).remote(src)
            rt.wait([pinned], num_returns=1)
            return True

        rt.run(driver)
        records = [
            r for r in rt.tasks.values() if r.spec.fn_name == "<lambda>"
            and r.spec.options.node == c
        ]
        assert records and all(r.assigned_node == c for r in records)

    def test_scheduling_error_when_cluster_dead(self):
        rt = make_runtime(num_nodes=1)
        for node in rt.cluster.nodes:
            node.fail()
        work = rt.remote(lambda: 1)

        def driver():
            with pytest.raises(Exception):
                work.remote()
                rt.sleep(1.0)
            return True

        # Submission itself may raise SchedulingError via dispatch.
        try:
            rt.run(driver)
        except Exception:
            pass


class TestPeekAndIntrospection:
    def test_peek_does_not_advance_time_or_charge_io(self):
        rt = make_runtime(num_nodes=2)
        make = rt.remote(lambda: _blob(50))

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            t0 = rt.timestamp()
            value = rt.peek(ref)
            assert rt.timestamp() == t0
            return value.nbytes

        assert rt.run(driver) == 50 * MB

    def test_peek_missing_payload_raises(self):
        from repro.common.errors import ObjectLostError
        from repro.futures.refs import ObjectRef
        from repro.common.ids import ObjectId

        rt = make_runtime(num_nodes=1)
        with pytest.raises(ObjectLostError):
            rt.peek(ObjectRef(ObjectId(999)))

    def test_task_attempts_for_put_object_is_zero(self):
        rt = make_runtime(num_nodes=1)

        def driver():
            ref = rt.put(5)
            return rt.task_attempts(ref)

        assert rt.run(driver) == 0


class TestRuntimeConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RuntimeConfig(fuse_min_bytes=0)
        with pytest.raises(ValueError):
            RuntimeConfig(failure_detection_s=-1)

    def test_runtime_requires_shared_environment(self):
        from repro.cluster import Cluster
        from repro.simcore import Environment
        from tests.conftest import make_node_spec

        cluster = Cluster.homogeneous(Environment(), make_node_spec(), 1)
        with pytest.raises(ValueError):
            Runtime(cluster, env=Environment())
