"""Unit tests for the spill manager's mechanics and size accounting."""

import numpy as np
import pytest

from repro.common.units import MB
from repro.futures.sizing import OBJECT_OVERHEAD_BYTES, size_of

from tests.conftest import make_runtime


class TestSizing:
    def test_declared_size_wins(self):
        class Declared:
            size_bytes = 12345

        assert size_of(Declared()) == 12345 + OBJECT_OVERHEAD_BYTES

    def test_numpy_arrays(self):
        arr = np.zeros(1000, dtype=np.float64)
        assert size_of(arr) == 8000 + OBJECT_OVERHEAD_BYTES

    def test_scalars_and_none(self):
        for value in (None, True, 7, 3.14):
            assert size_of(value) == 8 + OBJECT_OVERHEAD_BYTES

    def test_bytes_and_strings(self):
        assert size_of(b"abcd") == 4 + OBJECT_OVERHEAD_BYTES
        assert size_of("héllo") == len("héllo".encode()) + OBJECT_OVERHEAD_BYTES

    def test_containers_sum_members(self):
        inner = np.zeros(100, dtype=np.uint8)
        listed = size_of([inner, inner])
        assert listed >= 2 * 100

    def test_dicts(self):
        d = {"key": np.zeros(50, dtype=np.uint8)}
        assert size_of(d) > 50

    def test_numpy_values_charge_their_bytes(self):
        """Arrays and numpy scalars charge ``nbytes``, nested or not."""
        assert size_of(np.zeros((4, 5), dtype=np.int32)) == 80 + OBJECT_OVERHEAD_BYTES
        for scalar, nbytes in (
            (np.int64(-3), 8),
            (np.uint8(7), 1),
            (np.float32(1.5), 4),
            (np.bool_(True), 1),
            (np.complex128(1j), 16),
        ):
            assert size_of(scalar) == nbytes + OBJECT_OVERHEAD_BYTES, scalar
        nested = [np.ones(3), (np.int16(2), {"k": np.zeros(2, dtype=np.uint8)})]
        # list/tuple members add 8, dict entries 16 plus key and value.
        expected = (24 + 8) + ((2 + 8) + ((1 + 2 + 16) + 8) + 8)
        assert size_of(nested) == expected + OBJECT_OVERHEAD_BYTES

    def test_opaque_objects_get_flat_charge(self):
        class Opaque:
            pass

        assert size_of(Opaque()) == 256 + OBJECT_OVERHEAD_BYTES


class TestSpillMechanics:
    def _spilled_runtime(self, store_mib=32, n=8, blob_mb=8):
        rt = make_runtime(num_nodes=1, store_mib=store_mib)
        make = rt.remote(
            lambda i: (i, np.zeros(blob_mb * MB, dtype=np.uint8))
        )

        def driver():
            refs = [make.remote(i) for i in range(n)]
            rt.wait(refs, num_returns=len(refs))
            return refs

        refs = rt.run(driver)
        return rt, refs

    def test_spilled_objects_tracked_with_slots(self):
        rt, refs = self._spilled_runtime()
        spill = rt.driver_manager.spill
        spilled = [r for r in refs if spill.is_spilled(r.object_id)]
        assert spilled
        for ref in spilled:
            slot = spill.slot(ref.object_id)
            assert slot.size > 8 * MB * 0.99
            assert slot.file.num_objects >= 1

    def test_sequential_restore_skips_seeks(self):
        """Restoring a fused file front-to-back pays one seek total."""
        rt, refs = self._spilled_runtime(store_mib=32, n=8, blob_mb=8)
        spill = rt.driver_manager.spill
        node = rt.cluster.nodes[0]
        spilled = [r for r in refs if spill.is_spilled(r.object_id)]
        by_position = sorted(
            spilled, key=lambda r: (spill.slot(r.object_id).file.file_id,
                                    spill.slot(r.object_id).index)
        )
        ops_before = node.disk.ops_served
        busy_before = node.disk.busy_seconds
        bytes_total = 0

        def driver():
            nonlocal bytes_total
            for ref in by_position:
                slot = spill.slot(ref.object_id)
                bytes_total += slot.size
                rt._driver.block_on(spill.restore_read(ref.object_id))
            return None

        rt.run(driver)
        busy = node.disk.busy_seconds - busy_before
        # Bandwidth time plus at most one seek per file touched.
        files = {spill.slot(r.object_id).file.file_id for r in by_position}
        bandwidth_time = bytes_total / node.disk.bandwidth
        assert busy <= bandwidth_time + (len(files) + 1) * node.disk.per_op_latency

    def test_out_of_order_restore_pays_seeks(self):
        rt, refs = self._spilled_runtime(store_mib=32, n=8, blob_mb=8)
        spill = rt.driver_manager.spill
        node = rt.cluster.nodes[0]
        spilled = [r for r in refs if spill.is_spilled(r.object_id)]
        if len(spilled) < 3:
            pytest.skip("not enough spilled objects")
        busy_before = node.disk.busy_seconds
        scrambled = spilled[::-1]

        def driver():
            for ref in scrambled:
                rt._driver.block_on(spill.restore_read(ref.object_id))
            return None

        rt.run(driver)
        busy = node.disk.busy_seconds - busy_before
        bytes_total = sum(spill.slot(r.object_id).size for r in scrambled)
        bandwidth_time = bytes_total / node.disk.bandwidth
        # Reverse order: nearly every read seeks.
        assert busy >= bandwidth_time + (len(scrambled) - 1) * node.disk.per_op_latency * 0.9

    def test_forget_releases_slot_and_file_bytes(self):
        rt, refs = self._spilled_runtime()
        spill = rt.driver_manager.spill
        victim = next(r for r in refs if spill.is_spilled(r.object_id))
        slot = spill.slot(victim.object_id)
        live_before = slot.file.live_bytes
        spill.forget(victim.object_id)
        assert not spill.is_spilled(victim.object_id)
        assert slot.file.live_bytes == live_before - slot.size

    def test_spill_counters_consistent(self):
        rt, _ = self._spilled_runtime()
        written = rt.counters.get("spill_bytes_written")
        files = rt.counters.get("spill_files")
        assert written > 0 and files > 0
        # Fused: average file well above a single 8 MB object.
        assert written / files >= 8 * MB
