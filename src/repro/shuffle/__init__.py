"""Shuffle as an application-level library over distributed futures (§3).

This package is the paper's contribution: each module re-implements a
previously *monolithic* shuffle design as a short program against the
distributed-futures API, sharing the same data plane:

- :mod:`repro.shuffle.simple` -- pull-based MapReduce shuffle (§3.1.1).
- :mod:`repro.shuffle.riffle` -- pre-shuffle merge a la Riffle (§3.1.2).
- :mod:`repro.shuffle.magnet` -- push-based shuffle a la Magnet (§3.1.3).
- :mod:`repro.shuffle.push` -- the pipelined two-stage push shuffle of
  Listing 3 / §4.1, in ES-push and ES-push* (eager-free) variants.
- :mod:`repro.shuffle.streaming` -- round-based streaming shuffle for
  online aggregation (§3.2.1), and :class:`RoundDriver`, the same
  shuffle with rounds submitted one at a time (the streaming tier's
  windows).

All take the same shape of arguments: a runtime, a list of map inputs
(object refs or plain values), a ``map_fn(input) -> [R blocks]``, a
``reduce_fn(*blocks) -> output``, and return one object ref per reduce
partition without blocking -- callers pipeline on the refs with
``rt.get`` / ``rt.wait`` exactly as the paper's applications do.

Choosing among them is not this package's job: ``variant="auto"``
callers lower a :class:`repro.plan.ShuffleExpr`, and the paper's
empirical simple-vs-push rule is :func:`repro.plan.empirical_variant`.
The variants never import the planner.
"""

from repro.shuffle.simple import simple_shuffle
from repro.shuffle.riffle import riffle_shuffle
from repro.shuffle.riffle_dynamic import riffle_shuffle_dynamic
from repro.shuffle.magnet import magnet_shuffle
from repro.shuffle.push import push_based_shuffle
from repro.shuffle.streaming import RoundDriver, streaming_shuffle

__all__ = [
    "RoundDriver",
    "simple_shuffle",
    "riffle_shuffle",
    "riffle_shuffle_dynamic",
    "magnet_shuffle",
    "push_based_shuffle",
    "streaming_shuffle",
]
