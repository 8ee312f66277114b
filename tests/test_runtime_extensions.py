"""Extension features: executor failure."""

import numpy as np

from repro.common.units import MB
from repro.futures import RuntimeConfig

from tests.conftest import make_runtime


def _blob(mb):
    return np.zeros(int(mb * MB), dtype=np.uint8)


class TestExecutorFailure:
    def test_executor_death_loses_no_objects(self):
        """§4.2.3: the object store lives in the NodeManager, so killing
        executors mid-job needs no lineage reconstruction."""
        rt = make_runtime(num_nodes=2)
        node_b = rt.cluster.node_ids[1]
        make = rt.remote(lambda: _blob(10)).options(node=node_b)
        slow = rt.remote(lambda x: x.nbytes).options(node=node_b, compute=20.0)

        def driver():
            data = make.remote()
            rt.wait([data], num_returns=1)
            out = slow.remote(data)
            rt.sleep(5.0)  # `slow` is mid-execution
            rt.node_managers[node_b].kill_executors()
            return rt.get(out)

        assert rt.run(driver) == 10 * MB
        assert rt.counters.get("executor_failures") == 1
        # The data object survived in the store: no reconstruction.
        assert rt.counters.get("tasks_resubmitted") == 1  # only `slow`

    def test_executor_failure_recovery_is_fast(self):
        """Unlike node death, there is no detection delay to pay."""
        config = RuntimeConfig(failure_detection_s=30.0)
        rt = make_runtime(num_nodes=2, config=config)
        node_b = rt.cluster.node_ids[1]
        work = rt.remote(lambda: "v").options(node=node_b, compute=2.0)

        def driver():
            ref = work.remote()
            rt.sleep(1.0)
            rt.node_managers[node_b].kill_executors()
            value = rt.get(ref)
            return rt.timestamp(), value

        finished_at, value = rt.run(driver)
        assert value == "v"
        # ~1 s elapsed + a fresh 2 s execution; nowhere near the 30 s
        # node-failure detection timeout.
        assert finished_at < 5.0
