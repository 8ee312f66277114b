"""Deterministic randomness helpers.

Every stochastic choice in the reproduction (record keys, Zipf page
popularity, scheduler tie-breaking jitter, failure times) flows from an
explicit seed so that tests and benchmark tables are exactly repeatable.
``derive_seed`` splits a root seed into independent streams by name, so
adding a new consumer never perturbs existing ones.

Subsystems that want a *named* stream -- one whose derivation path is
declared once and reused everywhere -- register it with
:func:`register_stream` and draw from it with :func:`named_rng`.  The
registry makes stream identities explicit and collision-checked: two
subsystems cannot silently share (and therefore correlate) a stream, and
renaming a path is a reviewable one-line change.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:
    import numpy as np


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a child seed from a root seed and a path of names.

    The derivation hashes the path, so streams are independent and stable:

    >>> derive_seed(7, "map", 3) == derive_seed(7, "map", 3)
    True
    >>> derive_seed(7, "map", 3) != derive_seed(7, "map", 4)
    True
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode())
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode())
    return int.from_bytes(digest.digest()[:8], "big")


def seeded_rng(root_seed: int, *names: object) -> np.random.Generator:
    """Return a numpy ``Generator`` seeded from ``derive_seed``.

    numpy is imported here, on the first draw, so that importing this
    module (as nearly every package does) does not load it.
    """
    import numpy as np

    return np.random.default_rng(derive_seed(root_seed, *names))


#: Registered named streams: stream name -> derivation path.
_NAMED_STREAMS: Dict[str, Tuple[object, ...]] = {}


def register_stream(name: str, *path: object) -> None:
    """Declare a named RNG stream deriving from ``path``.

    Idempotent for identical re-registration; raises ``ValueError`` when
    the name is already bound to a *different* path (a collision that
    would correlate two supposedly independent streams).
    """
    key = tuple(path) if path else (name,)
    existing = _NAMED_STREAMS.get(name)
    if existing is not None:
        if existing != key:
            raise ValueError(
                f"RNG stream {name!r} already registered with path "
                f"{existing!r}, refusing to rebind to {key!r}"
            )
        return
    _NAMED_STREAMS[name] = key


def named_rng(root_seed: int, name: str, *extra: object) -> np.random.Generator:
    """A generator for the registered stream ``name`` under ``root_seed``.

    ``extra`` path elements split the stream further (e.g. per job index)
    without registering each split.  Raises ``KeyError`` for streams
    never registered -- typos fail loudly instead of minting ad-hoc
    streams.
    """
    path = _NAMED_STREAMS.get(name)
    if path is None:
        raise KeyError(
            f"RNG stream {name!r} is not registered; call register_stream first"
        )
    return seeded_rng(root_seed, *path, *extra)


#: Stream ordering multi-tenant job arrivals (registered here so every
#: consumer -- workload builder, benchmarks, tests -- shares one path).
JOB_ARRIVAL_STREAM = "jobs/arrival"
register_stream(JOB_ARRIVAL_STREAM, "jobs", "arrival")
