"""Byte-size accounting for objects stored in the object store.

The store manages *bytes*, so every stored value needs a size.  Values can
declare their own by exposing ``size_bytes`` (all of :mod:`repro.blocks`
does); otherwise common Python and numpy types are estimated.  Sizes only
need to be consistent, not exact -- they drive memory pressure and I/O
charges, not correctness.
"""

from __future__ import annotations

import sys
from typing import Any

#: Fixed overhead charged per stored object (metadata, headers).
OBJECT_OVERHEAD_BYTES = 64


def size_of(value: Any) -> int:
    """Estimate the stored size of ``value`` in bytes."""
    return OBJECT_OVERHEAD_BYTES + _payload_size(value)


def _payload_size(value: Any) -> int:
    declared = getattr(value, "size_bytes", None)
    if declared is not None:
        return int(declared)
    if value is None or isinstance(value, (bool, int, float)):
        return 8
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    # A value can only be a numpy array or scalar if numpy is loaded, so
    # sizing never imports it.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, (np.ndarray, np.generic)):
        return int(value.nbytes)
    if isinstance(value, (tuple, list, set, frozenset)):
        return sum(_payload_size(item) + 8 for item in value)
    if isinstance(value, dict):
        return sum(
            _payload_size(k) + _payload_size(v) + 16 for k, v in value.items()
        )
    # Opaque application object: charge a flat struct size.  Applications
    # with large custom payloads should expose ``size_bytes``.
    return 256
