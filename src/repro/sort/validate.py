"""Sort output validation (the benchmark's valsort equivalent).

For real blocks: every output sorted, outputs' key ranges respect the
reducer boundaries (so the concatenation is globally sorted), records and
content checksum conserved.  For virtual blocks: record conservation and
boundary containment (sortedness within a virtual block is a marker).
"""

from __future__ import annotations

from typing import Sequence

from repro.blocks.ops import Block, total_records


class SortValidationError(AssertionError):
    """The sort output violates the benchmark's correctness rules."""


def validate_sorted_output(
    outputs: Sequence[Block],
    bounds: Sequence[int],
    expected_records: int,
    expected_checksum: int = None,
) -> None:
    """Raise :class:`SortValidationError` on any violation."""
    if len(outputs) != len(bounds) + 1:
        raise SortValidationError(
            f"expected {len(bounds) + 1} outputs, got {len(outputs)}"
        )
    got_records = total_records(outputs)
    if got_records != expected_records:
        raise SortValidationError(
            f"record count changed: expected {expected_records}, got {got_records}"
        )
    edges = [0] + [int(b) for b in bounds] + [None]
    for r, block in enumerate(outputs):
        lo_bound, hi_bound = edges[r], edges[r + 1]
        key_range = block.key_range
        if key_range is None:
            continue  # empty partition is fine
        lo, hi = key_range
        if lo < lo_bound:
            raise SortValidationError(
                f"output {r} has key {lo} below boundary {lo_bound}"
            )
        if hi_bound is not None and hi >= hi_bound:
            raise SortValidationError(
                f"output {r} has key {hi} at/above boundary {hi_bound}"
            )
        if not block.is_virtual:
            keys = block.keys
            if keys.size > 1 and (keys[1:] < keys[:-1]).any():
                raise SortValidationError(f"output {r} is not sorted")
        elif not block.sorted:
            raise SortValidationError(f"virtual output {r} not marked sorted")
    if expected_checksum is not None:
        got = sum(block.checksum() for block in outputs) % 2**64
        if got != expected_checksum:
            raise SortValidationError(
                f"content checksum changed: {expected_checksum} -> {got}"
            )
