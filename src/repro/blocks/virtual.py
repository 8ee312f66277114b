"""Metadata-only blocks for TB-scale simulation."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.blocks.layout import (
    DEFAULT_RECORD_BYTES,
    KEY_SPACE,
    MIN_RECORD_BYTES,
    check_record_bytes,
)


class VirtualBlock:
    """A block described by record count and key range, with no payload.

    Virtual blocks assume keys uniformly distributed over ``key_range``
    (true for the sort benchmark's generator); partitioning splits counts
    deterministically with exact conservation (largest-remainder rounding).
    """

    __slots__ = ("_num_records", "record_bytes", "_key_range", "sorted")

    def __init__(
        self,
        num_records: int,
        record_bytes: int = DEFAULT_RECORD_BYTES,
        key_range: Optional[Tuple[int, int]] = (0, KEY_SPACE),
        is_sorted: bool = False,
    ) -> None:
        if num_records < 0:
            raise ValueError("negative record count")
        if record_bytes < MIN_RECORD_BYTES:
            # Compared inline: every block a run builds passes here, and
            # the call would cost more than the comparison.
            check_record_bytes(record_bytes)
        if key_range is not None and key_range[0] > key_range[1]:
            raise ValueError(f"inverted key range {key_range}")
        self._num_records = int(num_records)
        self.record_bytes = record_bytes
        self._key_range = key_range if num_records > 0 else None
        self.sorted = is_sorted

    # -- the Block interface ----------------------------------------------
    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def size_bytes(self) -> int:
        return self._num_records * self.record_bytes

    @property
    def key_range(self) -> Optional[Tuple[int, int]]:
        return self._key_range

    @property
    def is_virtual(self) -> bool:
        return True

    def checksum(self) -> int:
        """Virtual blocks fingerprint by record count only."""
        return self._num_records

    def __repr__(self) -> str:
        return (
            f"VirtualBlock(records={self.num_records}, "
            f"bytes={self.size_bytes}, range={self._key_range})"
        )
