"""The record layout both block kinds share, without numpy.

A virtual run never materialises a key, so the constants it needs --
record width, key space -- and the rule on record width live here
rather than in :mod:`repro.blocks.real`, which imports numpy.
"""

#: The sort benchmark's record layout: 10-byte key, 90-byte value.  Keys
#: are modelled as uint64 draws from a bounded key space.
DEFAULT_RECORD_BYTES = 100
KEY_SPACE = 2**32

#: A record holds at least its uint64 key.
MIN_RECORD_BYTES = 8


def check_record_bytes(record_bytes: int) -> None:
    """Raise ``ValueError`` for records narrower than their key."""
    if record_bytes < MIN_RECORD_BYTES:
        raise ValueError(
            f"records must be at least key-sized ({MIN_RECORD_BYTES} bytes)"
        )
