"""Shared fixtures: small clusters and runtimes for unit tests."""

from typing import List

import pytest

from repro.chaos.harness import default_node_spec, make_inputs, submit_variant
from repro.chaos.injector import ChaosInjector
from repro.chaos.spec import FaultKind, matrix_plan
from repro.cluster import DiskSpec, NicSpec, NodeSpec
from repro.common.units import GIB, MIB
from repro.futures import Runtime, RuntimeConfig

#: Registries currently collecting runtimes for post-test invariant
#: checking; ``make_runtime`` appends every runtime it builds to each
#: active registry (see the ``check_invariants`` fixture).
_active_invariant_registries: List[List[Runtime]] = []


def make_node_spec(
    cores: int = 4,
    memory_gib: int = 8,
    store_mib: int = 2048,
    disk_mb_s: float = 200.0,
    seek_ms: float = 5.0,
    nic_mb_s: float = 125.0,
) -> NodeSpec:
    return NodeSpec(
        name="test-node",
        cores=cores,
        memory_bytes=memory_gib * GIB,
        object_store_bytes=store_mib * MIB,
        disk=DiskSpec(
            bandwidth_bytes_per_sec=disk_mb_s * 1e6, seek_latency_s=seek_ms * 1e-3
        ),
        nic=NicSpec(bandwidth_bytes_per_sec=nic_mb_s * 1e6),
    )


def make_runtime(
    num_nodes: int = 2, config: RuntimeConfig = None, **spec_kwargs
) -> Runtime:
    runtime = Runtime.create(
        make_node_spec(**spec_kwargs), num_nodes, config=config or RuntimeConfig()
    )
    for registry in _active_invariant_registries:
        registry.append(runtime)
    return runtime


def _chaos_workload(seed: int):
    """The chaos demo workload: a push shuffle under a node crash.
    Returns ``(runtime, driver)``."""
    rt = Runtime.create(default_node_spec(), 4)
    ChaosInjector(rt, matrix_plan(FaultKind.NODE_CRASH, seed=seed))
    inputs = make_inputs(seed, 8, 24)

    def driver():
        return rt.get(submit_variant("push", rt, inputs, 4))

    return rt, driver


@pytest.fixture
def rt() -> Runtime:
    return make_runtime()


@pytest.fixture
def rt_single() -> Runtime:
    return make_runtime(num_nodes=1)


@pytest.fixture
def check_invariants():
    """Opt-in: validate every runtime the test built, after it passes.

    Apply with ``pytestmark = pytest.mark.usefixtures("check_invariants")``
    (or per-test).  After the test body returns, each runtime created via
    :func:`make_runtime` is drained to quiesce and run through the chaos
    layer's :class:`~repro.chaos.InvariantChecker`; any violation (leaked
    refcounts, inconsistent locations, unreconstructable live objects,
    stuck tasks) fails the test.
    """
    from repro.chaos import InvariantChecker

    registry: List[Runtime] = []
    _active_invariant_registries.append(registry)
    try:
        yield
    finally:
        _active_invariant_registries.remove(registry)
    for runtime in registry:
        runtime.env.run()  # drain pending recoveries/timers to quiesce
        violations = InvariantChecker(runtime).check()
        assert not violations, (
            f"invariant violations after test: {violations[:10]}"
        )
