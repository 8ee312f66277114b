"""A from-scratch distributed-futures runtime in the style of Ray (§4).

Public surface::

    from repro.futures import Runtime, RuntimeConfig

    rt = Runtime.create(node_spec, num_nodes=10)

    @rt.remote(num_returns=4)
    def mapper(part):
        ...

    def driver():
        refs = mapper.remote(part)
        return rt.get(refs)

    result = rt.run(driver)
    print(rt.now)          # simulated job completion time
    print(rt.stats())      # counters: spills, network bytes, tasks, ...
"""

from repro.futures.actor import ActorClass, ActorHandle
from repro.futures.config import RuntimeConfig
from repro.futures.driver import DriverHandle
from repro.futures.lineage import LineageManager
from repro.futures.refs import ObjectRef
from repro.futures.remote import RemoteFunction
from repro.futures.runtime import UNATTRIBUTED_JOB, Runtime
from repro.futures.scheduler import Scheduler
from repro.futures.task import CostContext, TaskOptions, TaskPhase

__all__ = [
    "Runtime",
    "RuntimeConfig",
    "ObjectRef",
    "RemoteFunction",
    "ActorClass",
    "ActorHandle",
    "TaskOptions",
    "TaskPhase",
    "CostContext",
    "DriverHandle",
    "Scheduler",
    "LineageManager",
    "UNATTRIBUTED_JOB",
]
