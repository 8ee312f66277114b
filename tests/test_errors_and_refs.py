"""Error types and ObjectRef reference semantics."""

import gc

import numpy as np
import pytest

from repro.common.errors import (
    LineageReconstructionError,
    ObjectLostError,
    OutOfMemoryError,
    ReproError,
    SchedulingError,
    TaskExecutionError,
)
from repro.common.ids import ObjectId, TaskId
from repro.futures.refs import ObjectRef, make_ref

from tests.conftest import make_runtime


class TestErrors:
    def test_hierarchy(self):
        for exc_type in (
            OutOfMemoryError,
            ObjectLostError,
            TaskExecutionError,
            SchedulingError,
            LineageReconstructionError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_object_lost_message(self):
        error = ObjectLostError(ObjectId(7), "gone fishing")
        assert "O00007" in str(error)
        assert "gone fishing" in str(error)
        assert error.object_id == ObjectId(7)

    def test_task_execution_carries_cause(self):
        cause = ValueError("inner")
        error = TaskExecutionError(TaskId(3), cause)
        assert error.cause is cause
        assert "T00003" in str(error)


class TestObjectRefSemantics:
    def test_equality_and_hash_by_object_id(self):
        a = ObjectRef(ObjectId(1))
        b = ObjectRef(ObjectId(1))
        c = ObjectRef(ObjectId(2))
        assert a == b and a != c
        assert len({a, b, c}) == 2

    def test_release_is_idempotent(self):
        calls = []
        ref = ObjectRef(ObjectId(5), release=calls.append)
        ref.release()
        ref.release()
        assert calls == [ObjectId(5)]

    def test_del_releases(self):
        calls = []
        ref = ObjectRef(ObjectId(6), release=calls.append)
        del ref
        gc.collect()
        assert calls == [ObjectId(6)]

    def test_make_ref_counts_against_runtime(self):
        rt = make_runtime(num_nodes=1)
        oid = rt.ids.next_object_id()
        rt.directory.register(oid, creator=None)
        ref1 = make_ref(rt, oid)
        ref2 = make_ref(rt, oid)
        assert rt.directory.get(oid).refcount == 2
        ref1.release()
        assert rt.directory.get(oid).refcount == 1
        ref2.release()
        # Refcount zero: the record was evicted and dropped.
        assert rt.directory.maybe_get(oid) is None

    def test_dangling_ref_after_runtime_gc_is_harmless(self):
        rt = make_runtime(num_nodes=1)
        oid = rt.ids.next_object_id()
        rt.directory.register(oid, creator=None)
        ref = make_ref(rt, oid)
        del rt
        gc.collect()
        ref.release()  # weakref target gone; must not raise

    def test_refs_of_one_runtime_share_one_release_callable(self):
        rt = make_runtime(num_nodes=1)
        first, second = rt.ids.next_object_id(), rt.ids.next_object_id()
        for oid in (first, second):
            rt.directory.register(oid, creator=None)
        refs = [make_ref(rt, first), make_ref(rt, second), make_ref(rt, first)]
        assert all(ref._release is rt.release_ref for ref in refs)
        refs[0].release()
        refs[0].release()
        assert rt.directory.get(first).refcount == 1


class TestSpillMapSentinel:
    def test_unspilled_objects_share_the_never_mutated_empty_map(self):
        from repro.futures.directory import _NO_SPILLS

        rt = make_runtime(num_nodes=1, store_mib=64)
        make = rt.remote(lambda: np.zeros(16 * 10**6, dtype=np.uint8))

        def driver():
            refs = [make.remote() for _ in range(12)]  # 192 MB into 64 MiB
            rt.wait(refs, num_returns=len(refs))
            spilled = [
                rt.directory.get(ref.object_id).spill_nodes for ref in refs
            ]
            assert any(spills for spills in spilled)
            assert any(spills is _NO_SPILLS for spills in spilled)
            return refs

        rt.run(driver)
        assert len(_NO_SPILLS) == 0
        first, second = rt.ids.next_object_id(), rt.ids.next_object_id()
        for oid in (first, second):
            rt.directory.register(oid, creator=None)
        node = rt.cluster.node_ids[0]
        rt.directory.remove_spill_location(first, node)  # nothing to forget
        rt.directory.add_spill_location(first, node, "slot")
        assert rt.directory.get(first).spill_nodes == {node: "slot"}
        assert rt.directory.get(second).spill_nodes is _NO_SPILLS
        rt.directory.remove_spill_location(first, node)
        assert rt.directory.get(first).spill_nodes == {}
        assert len(_NO_SPILLS) == 0
