"""Object store, spilling, write fusing, prefetching, and GC behaviour."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.chaos import InvariantChecker
from repro.common.ids import NodeId, ObjectId, TaskId
from repro.common.units import MB, MIB
from repro.futures import RuntimeConfig
from repro.futures.directory import ObjectDirectory
from repro.sort import SortJobConfig, run_sort

from tests.conftest import make_runtime


def _blob(mb):
    """A payload of ``mb`` megabytes."""
    return np.zeros(int(mb * MB), dtype=np.uint8)


class TestSpilling:
    def test_overflow_spills_to_disk(self):
        """Creating 3x the store capacity must spill, not fail."""
        rt = make_runtime(num_nodes=1, store_mib=64)
        make = rt.remote(lambda: _blob(16))

        def driver():
            refs = [make.remote() for _ in range(12)]  # 192 MB into 64 MiB
            ready, _ = rt.wait(refs, num_returns=len(refs))
            return len(ready)

        assert rt.run(driver) == 12
        assert rt.counters.get("spill_bytes_written") > 0
        assert rt.counters.get("spill_files") > 0

    def test_spilled_object_restored_for_get(self):
        rt = make_runtime(num_nodes=1, store_mib=64)
        make = rt.remote(lambda tag: (tag, _blob(16)))

        def driver():
            refs = [make.remote(i) for i in range(12)]
            # Let everything finish (and spill) before reading back.
            rt.wait(refs, num_returns=len(refs))
            values = rt.get(refs)
            return [tag for tag, _ in values]

        assert rt.run(driver) == list(range(12))
        assert rt.counters.get("spill_bytes_read") > 0

    def test_fusing_batches_small_objects(self):
        """With fusing, spilling N small objects makes few large files."""
        config = RuntimeConfig(fuse_min_bytes=8 * MB)
        rt = make_runtime(num_nodes=1, store_mib=16, config=config)
        make = rt.remote(lambda: _blob(1))

        def driver():
            refs = [make.remote() for _ in range(64)]
            rt.wait(refs, num_returns=len(refs))
            return refs

        rt.run(driver)
        files = rt.counters.get("spill_files")
        spilled = rt.counters.get("spill_bytes_written")
        assert spilled > 0
        assert files < spilled / (4 * MB)  # files are multi-object

    def test_unfused_spill_is_slower_on_seeky_disk(self):
        """Fig 7 mechanism: disabling fusing costs a seek per object."""

        def run(fusing):
            config = RuntimeConfig(
                spill_policy="default" if fusing else "unfused"
            )
            rt = make_runtime(
                num_nodes=1, store_mib=16, seek_ms=20.0, config=config
            )
            make = rt.remote(lambda: _blob(0.2))

            def driver():
                refs = [make.remote() for _ in range(200)]
                rt.wait(refs, num_returns=len(refs))
                return refs

            rt.run(driver)
            return rt.now

        assert run(fusing=False) > 1.5 * run(fusing=True)

    def test_single_giant_object_falls_back_to_disk(self):
        """An object bigger than the store must not deadlock (§4.2.2
        "falls back to allocating task output objects on the filesystem")."""
        rt = make_runtime(num_nodes=1, store_mib=32)
        make = rt.remote(lambda: _blob(64))

        def driver():
            ref = make.remote()
            ready, _ = rt.wait([ref], num_returns=1)
            return len(ready)

        assert rt.run(driver) == 1
        assert rt.counters.get("fallback_allocations") >= 1


class TestEagerEviction:
    def test_release_evicts_everywhere(self):
        rt = make_runtime(num_nodes=1, store_mib=256)
        make = rt.remote(lambda: _blob(16))

        def driver():
            refs = [make.remote() for _ in range(4)]
            rt.wait(refs, num_returns=4)
            rt.free(refs)
            return True

        rt.run(driver)
        assert rt.counters.get("objects_evicted") >= 4
        store = rt.driver_manager.store
        assert store.used_bytes == 0

    def test_deleted_refs_avoid_spilling(self):
        """The ES-push* trick: dropping refs before memory pressure means
        the objects are evicted for free instead of spilled."""
        rt = make_runtime(num_nodes=1, store_mib=64)
        make = rt.remote(lambda: _blob(16))
        consume = rt.remote(lambda x: x.nbytes)

        def driver(free_early):
            total = 0
            for _ in range(12):
                ref = make.remote()
                out = consume.remote(ref)
                del ref
                total += rt.get(out)
            return total

        rt.run(driver, True)
        # Every intermediate was consumed then freed: nothing needed disk.
        assert rt.counters.get("spill_bytes_written") == 0

    def test_held_refs_do_spill_under_pressure(self):
        rt = make_runtime(num_nodes=1, store_mib=64)
        make = rt.remote(lambda: _blob(16))
        consume = rt.remote(lambda x: x.nbytes)

        def driver():
            kept = []
            for _ in range(12):
                ref = make.remote()
                kept.append(ref)
                rt.get(consume.remote(ref))
            return len(kept)

        rt.run(driver)
        assert rt.counters.get("spill_bytes_written") > 0

    def test_get_after_free_raises(self):
        rt = make_runtime(num_nodes=1)
        make = rt.remote(lambda: 42)

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            rt.free([ref])
            with pytest.raises(Exception):
                rt.get(ref)
            return True

        assert rt.run(driver)


class TestFetchingAndLocality:
    def test_cross_node_arg_fetch_charges_network(self):
        rt = make_runtime(num_nodes=2)
        make = rt.remote(lambda: _blob(50))
        a, b = rt.cluster.node_ids

        def driver():
            src = make.options(node=a).remote()
            out = rt.remote(lambda x: x.nbytes).options(node=b).remote(src)
            return rt.get(out)

        assert rt.run(driver) == 50 * MB
        assert rt.cluster.network_bytes_sent >= 50 * MB

    def test_locality_scheduling_avoids_network(self):
        # The same driver under the default placement and its ablation
        # arm, which drops affinity and locality.
        def run(placement_policy):
            rt = make_runtime(
                num_nodes=4,
                config=RuntimeConfig(placement_policy=placement_policy),
            )
            make = rt.remote(lambda: _blob(50))
            busy = rt.remote(lambda: None).options(compute=5.0)
            consume = rt.remote(lambda x: x.nbytes)

            def driver():
                src = make.remote()
                rt.wait([src], num_returns=1)
                # Occupy the producer's node (node 0, first by id) so it
                # is no longer the least loaded when the consumer places.
                busy.remote()
                return rt.get(consume.remote(src))

            assert rt.run(driver) == 50 * MB
            return rt.cluster.network_bytes_sent

        # With locality only the tiny final result crosses the network.
        assert run("default") < 1000
        # Without it the consumer lands on the least-loaded node and
        # must pull the bytes.
        assert run("load-only") >= 50 * MB

    def test_node_affinity_is_soft_when_node_dead(self):
        rt = make_runtime(num_nodes=3)
        victim = rt.cluster.node_ids[2]
        rt.cluster.node(victim).fail()
        work = rt.remote(lambda: "ran").options(node=victim)

        def driver():
            return rt.get(work.remote())

        assert rt.run(driver) == "ran"

    def test_concurrent_fetches_of_same_object_deduplicate(self):
        rt = make_runtime(num_nodes=2)
        make = rt.remote(lambda: _blob(80))
        touch = rt.remote(lambda x: 1)
        a, b = rt.cluster.node_ids

        def driver():
            src = make.options(node=a).remote()
            rt.wait([src], num_returns=1)
            outs = [touch.options(node=b).remote(src) for _ in range(6)]
            return sum(rt.get(outs))

        assert rt.run(driver) == 6
        # Only one copy of the 80 MB object should cross the network.
        assert rt.cluster.network_bytes_sent < 2 * 80 * MB

    @staticmethod
    def _fetch_race(num_fetchers, kill_at=None, ballast=True, stagger=0.0):
        """``num_fetchers`` processes on node B call ``ensure_local`` for one
        80 MB object on node A (a 0.64 s transfer), fetcher ``i`` starting
        ``i * stagger`` in.  B's 100 MiB store holds a 40 MB ballast
        unless ``ballast`` is false, so the first fetch's copy is
        allocated only after the ballast spills (0.2 s); a fetcher
        arriving meanwhile finds no copy on B and waits on that fetch.
        With ``kill_at``, B's manager is killed then and a fresh fetcher
        starts right after.
        Returns the runtime, B's manager, the object and its size, the
        bytes sent, each fetcher's ``(state, finished_at, table entry at
        return)`` and probes of the fetch table taken 0.1 s in, with the
        time its wake-up event fired."""
        rt = make_runtime(num_nodes=2, store_mib=100)
        a, b = rt.cluster.node_ids
        make = rt.remote(lambda mb: _blob(mb))

        def driver():
            refs = [make.options(node=b).remote(40)] if ballast else []
            refs.append(make.options(node=a).remote(80))
            rt.wait(refs, num_returns=len(refs))
            return refs

        ref = rt.run(driver)[-1]
        oid, manager, env = ref.object_id, rt.node_managers[b], rt.env
        sent_before = rt.cluster.network_bytes_sent
        results, probes = {}, {}

        def fetcher(name, start=0.0):
            if start:
                yield env.timeout(start)
            state = yield from manager.ensure_local(oid)
            results[name] = (state, env.now, manager._inflight_fetches.get(oid))

        def probe():
            yield env.timeout(0.1)
            waiters = probes["waiters_event"] = manager._inflight_fetches[oid][0]
            if waiters is not None:
                waiters.add_callback(lambda _: probes.setdefault("woken_at", env.now))
            if kill_at is not None:
                yield env.timeout(kill_at - 0.1)
                manager.kill()
                assert oid not in manager._inflight_fetches
                env.process(fetcher("after-kill"))
                yield env.timeout(0)
                probes["newer"] = manager._inflight_fetches[oid]

        for i in range(num_fetchers):
            env.process(fetcher(i, i * stagger))
        env.process(probe())
        env.run()
        return SimpleNamespace(
            rt=rt,
            manager=manager,
            oid=oid,
            size=rt.directory.maybe_get(oid).size,
            sent=rt.cluster.network_bytes_sent - sent_before,
            results=results,
            probes=probes,
        )

    def test_unshared_fetch_creates_no_wakeup_event(self):
        race = self._fetch_race(1)
        assert race.probes["waiters_event"] is None
        assert race.results[0][0] == "memory"
        assert race.manager.store.is_pinned(race.oid)
        assert race.sent == race.size
        assert not race.manager._inflight_fetches

    def test_second_same_node_fetcher_waits_on_the_first(self):
        race = self._fetch_race(2)
        results, store = race.results, race.manager.store
        # The second fetcher made the wake-up event; the first succeeded it.
        assert race.probes["waiters_event"] is not None
        assert race.probes["waiters_event"].processed
        assert race.probes["woken_at"] == results[0][1]
        # The waiter re-checks and pins the copy the first fetch brought.
        assert [results[i][0] for i in (0, 1)] == ["memory", "memory"]
        store.unpin(race.oid)
        assert store.is_pinned(race.oid)
        store.unpin(race.oid)
        assert not store.is_pinned(race.oid)
        assert results[0][1] == results[1][1] > 0.6
        assert race.sent == race.size
        assert race.rt.stats()["fetched_objects"] == 1
        assert not race.manager._inflight_fetches

    def test_fetcher_arriving_mid_transfer_waits_for_the_bytes(self):
        race = self._fetch_race(2, ballast=False, stagger=0.3)
        results = race.results
        # The first fetch's copy is allocated (so resident) at once, but
        # the second fetcher returns only when its bytes have landed.
        assert [results[i][0] for i in (0, 1)] == ["memory", "memory"]
        assert results[1][1] == results[0][1] > 0.6
        assert race.sent == race.size
        assert not race.manager._inflight_fetches

    def test_kill_mid_transfer_keeps_waiter_and_newer_fetch(self):
        race = self._fetch_race(2, kill_at=0.5)
        results, probes = race.results, race.probes
        # The waiter on the killed fetch was still woken, and the killed
        # fetch's cleanup left the newer fetch's entry alone.
        assert set(results) == {0, 1, "after-kill"}
        assert probes["waiters_event"].processed
        assert probes["woken_at"] == results[0][1]
        # Woken, the waiter finds the newer fetch in flight (its copy
        # allocated but still arriving) and returns when that one lands.
        assert results[1][1] == results["after-kill"][1]
        assert results[0][2] is probes["newer"]
        assert results["after-kill"][2] is None
        assert results["after-kill"][1] > results[0][1]
        assert race.sent == 2 * race.size
        assert not race.manager._inflight_fetches


class TestPrefetching:
    def _pipeline_time(self, prefetch: bool) -> float:
        """Chain of consumers whose args must come from another node."""
        config = RuntimeConfig(enable_prefetching=prefetch)
        rt = make_runtime(num_nodes=2, cores=1, nic_mb_s=50.0, config=config)
        a, b = rt.cluster.node_ids
        make = rt.remote(lambda: _blob(25))
        crunch = rt.remote(lambda x: 1).options(compute=0.5, node=b)

        def driver():
            srcs = [make.options(node=a).remote() for _ in range(8)]
            rt.wait(srcs, num_returns=len(srcs))
            outs = [crunch.remote(s) for s in srcs]
            return sum(rt.get(outs))

        rt.run(driver)
        return rt.now

    def test_prefetch_overlaps_io_with_execution(self):
        """Fig 7 mechanism: pipelined fetching hides transfer latency.

        Node b has 1 core; without prefetch each task serialises
        fetch(0.5s)+compute(0.5s); with prefetch the fetches overlap
        earlier tasks' compute.
        """
        with_prefetch = self._pipeline_time(True)
        without = self._pipeline_time(False)
        assert with_prefetch < 0.8 * without


class TestIntrospection:
    def test_locations_of(self):
        rt = make_runtime(num_nodes=2)
        a = rt.cluster.node_ids[0]
        make = rt.remote(lambda: _blob(1)).options(node=a)

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            return rt.locations_of(ref)

        assert rt.run(driver) == [a]

    def test_task_attempts_counts_executions(self):
        rt = make_runtime(num_nodes=1)
        make = rt.remote(lambda: 7)

        def driver():
            ref = make.remote()
            rt.wait([ref], num_returns=1)
            return rt.task_attempts(ref)

        assert rt.run(driver) == 1


class TestPerObjectColumns:
    """The directory and the stores keep per-object state in columns
    indexed by object id, with memory locations as one node bitmask."""

    def test_locations_past_64_nodes_read_back_ascending(self):
        directory = ObjectDirectory(on_refcount_zero=lambda oid: None)
        oid = ObjectId(5)
        directory.register(oid, creator=TaskId(1))
        for node in (99, 0, 64, 63):
            directory.add_memory_location(oid, NodeId(node))
        nodes = directory.get(oid).memory_nodes
        assert nodes == (0, 63, 64, 99)
        assert all(type(node) is NodeId for node in nodes)
        directory.add_spill_location(oid, NodeId(70), "slot")
        assert directory.locations(oid) == {0, 63, 64, 70, 99}
        assert directory.location_nodes(oid) == [0, 63, 64, 70, 99]
        directory.remove_memory_location(oid, NodeId(64))
        directory.remove_memory_location(oid, NodeId(0))
        assert directory.memory_nodes(oid) == (63, 99)
        assert directory.holds(oid, NodeId(99))
        assert directory.holds(oid, NodeId(70))
        assert not directory.holds(oid, NodeId(64))
        directory.mark_created(oid, 10)
        for node in (63, 99):
            directory.remove_memory_location(oid, NodeId(node))
        directory.remove_spill_location(oid, NodeId(70))
        assert directory.memory_nodes(oid) == ()
        assert directory.get(oid).lost
        # The creator outlives the record; lineage re-registers with it.
        directory.drop(oid)
        assert directory.creator_of(oid) == TaskId(1)

    def test_seventy_node_round_leaves_invariants_clean(self):
        rt = make_runtime(num_nodes=70, store_mib=64)
        double = rt.remote(lambda x: 2 * x)

        def driver():
            ref = rt.put(21)
            outs = [
                double.options(node=NodeId(node)).remote(ref)
                for node in (64, 69, 63)
            ]
            values = rt.get(outs)
            locations = rt.locations_of(ref)
            rt.free(outs + [ref])
            return values, locations

        values, locations = rt.run(driver)
        assert values == [42, 42, 42]
        assert locations == [0, 63, 64, 69]
        rt.env.run()
        assert InvariantChecker(rt).check() == []
        assert len(rt.directory) == 0

    def test_eviction_frees_each_holder_once_in_ascending_node_order(self):
        rt = make_runtime(num_nodes=70, store_mib=64)
        freed = []
        for node_id, manager in rt.node_managers.items():

            def spy(oid, node_id=node_id, free=manager.store.free):
                freed.append((node_id, oid))
                return free(oid)

            manager.store.free = spy
        make = rt.remote(lambda: 7).options(node=NodeId(66))
        read = rt.remote(lambda x: x)

        def driver():
            ref = make.remote()
            outs = [read.options(node=NodeId(n)).remote(ref) for n in (65, 3)]
            rt.get(outs)
            rt.free(outs)
            before = len(freed)
            rt.free([ref])
            return ref.object_id, freed[before:]

        oid, evicted = rt.run(driver)
        assert evicted == [(3, oid), (65, oid), (66, oid)]

    def test_per_object_state_stays_compact(self):
        """At the peak of a 10-node ``simple`` sort, the directory (whose
        columns include each object's creator) and the stores hold at
        most 280 B per live object.  A record with its location set, a
        store entry object per copy and a creator map cost about 570 B.

        The peak is the engine step where the stores hold the most
        bytes; a first run finds it, and a replay under tracemalloc
        snapshots there."""

        def sort_run(on_step):
            rt = make_runtime(num_nodes=10, store_mib=256)
            step, steps = rt.env.step, [0]

            def counted():
                step()
                steps[0] += 1
                on_step(rt, steps[0])

            rt.env.step = counted
            config = SortJobConfig(
                variant="simple",
                num_partitions=30,
                partition_bytes=int(0.3 * 10 * 256 * MIB / 30),
                virtual=True,
            )
            assert run_sort(rt, config).validated

        peak = {"bytes": 0, "step": 0}

        def find_peak(rt, step):
            used = sum(m.store.used_bytes for m in rt.node_managers.values())
            if used > peak["bytes"]:
                peak.update(bytes=used, step=step)

        sort_run(find_peak)
        sites = [
            tracemalloc.Filter(True, "*repro/futures/directory.py"),
            tracemalloc.Filter(True, "*repro/futures/object_store.py"),
        ]
        held = {}

        def measure(rt, step):
            if step == peak["step"]:
                snapshot = tracemalloc.take_snapshot().filter_traces(sites)
                held["bytes"] = sum(s.size for s in snapshot.statistics("filename"))
                held["live"] = len(rt.directory)

        tracemalloc.start()
        try:
            sort_run(measure)
        finally:
            tracemalloc.stop()
        assert held["live"] > 900
        assert held["bytes"] / held["live"] <= 280
