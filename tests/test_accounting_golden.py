"""Bit-for-bit pins on the runtime's accounting views.

The golden event digests hash the bus only; these hash the counter
views themselves -- ``rt.stats()``, ``rt.job_stats()`` and
``JobManager.tenant_metrics()`` -- so a change to how counts are stored
or charged cannot silently move a global total or a per-job bucket.
"""

import hashlib
import json

from repro.chaos.harness import default_node_spec
from repro.common.units import MIB
from repro.futures import Runtime, RuntimeConfig
from repro.jobs import JobManager, mixed_workload

GOLDEN_JOBS_STATS = (
    "2c4bea48640cea3cd8bf8c8c7b535a6edd1eb77c50a0c1a5f1c298425def6bb0"
)
GOLDEN_JOBS_JOB_STATS = (
    "12f2babb430c91967d917130afa0cd262469921d8d88609582f867f8b330404c"
)
GOLDEN_JOBS_TENANT_METRICS = (
    "fadb25ea9b55f780dce7078cbd588ebcc82b1f1f4fa6bb4a1367123696cebb8f"
)
GOLDEN_SPILL_STATS = (
    "5e7d01d14fa6bbd04fe4301f1f30fa14008320e606228c3c3cd2ebb06a244840"
)
GOLDEN_SPILL_JOB_STATS = (
    "45a77cefc3b061e872ee728952d1cff0157e8fb7490be33549cea7927b6155ff"
)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_mixed_workload_accounting_is_pinned():
    tenants, specs = mixed_workload(seed=7, num_jobs=8)
    rt = Runtime.create(default_node_spec(), 4, config=RuntimeConfig())
    manager = JobManager(rt)
    for tenant in tenants:
        manager.add_tenant(tenant)
    for spec in specs:
        manager.submit(spec)
    manager.run()
    assert _digest(rt.stats()) == GOLDEN_JOBS_STATS
    assert _digest(rt.job_stats()) == GOLDEN_JOBS_JOB_STATS
    assert _digest(manager.tenant_metrics()) == GOLDEN_JOBS_TENANT_METRICS


def test_two_tenant_spill_accounting_is_pinned():
    """Two labeled drivers overflow a 4 MiB store, so spill bytes are
    charged per object to each tenant's job."""
    rt = Runtime.create(default_node_spec().with_object_store(4 * MIB), 2)

    def spill_job(chunks):
        produce = rt.remote(lambda: bytes(MIB), compute=0.01)
        rt.get([produce.remote() for _ in range(chunks)])
        return chunks

    def driver():
        handles = [
            rt.spawn_driver(spill_job, 10, name=f"job:{label}", label=label)
            for label in ("tenant-a/sort", "tenant-b/sort")
        ]
        return [rt.join_driver(h) for h in handles]

    rt.run(driver)
    rt.env.run()
    assert rt.stats()["spill_bytes_written"] > 0
    assert _digest(rt.stats()) == GOLDEN_SPILL_STATS
    assert _digest(rt.job_stats()) == GOLDEN_SPILL_JOB_STATS
