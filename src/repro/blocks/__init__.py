"""Data-plane payloads: blocks of keyed records, real or virtual.

The paper moves terabytes of 100-byte records; this reproduction runs the
same algorithms over two interchangeable payload types:

- :class:`RealBlock` -- an actual numpy array of integer keys (plus a
  per-record payload width).  Used at MB scale to validate true
  end-to-end sortedness and aggregation correctness.
- :class:`VirtualBlock` -- size and key-range metadata only.  Used at
  TB scale so the runtime's allocation, spilling, transfer, and GC paths
  are exercised with realistic byte counts without materialising the data.

Both satisfy the same interface (``size_bytes``, ``num_records``,
``key_range``, ``sorted``), and :mod:`repro.blocks.ops` implements
partition/merge/sort over either, conserving record counts exactly --
the invariant the property-based tests check.
"""

from repro.common.lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first use: only
#: ``RealBlock`` needs numpy, and a virtual run never reads it.
_EXPORTS = {
    "RealBlock": "real",
    "VirtualBlock": "virtual",
    "partition_block": "ops",
    "merge_sorted_blocks": "ops",
    "sort_block": "ops",
    "concat_blocks": "ops",
    "total_records": "ops",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
