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

Applications call them through one entry point, :func:`submit`, with a
:data:`repro.plan.PLAN_VARIANTS` name and a :class:`ShuffleOps` bundle;
``push`` frees map outputs eagerly (ES-push*) unless
``free_map_outputs=False`` (ES-push).  The sort's §5.1.1 labels are a
table over these names (:data:`repro.sort.job.LOWERINGS`).  Choosing a
variant is not this package's job: ``variant="auto"`` callers lower a
:class:`repro.plan.ShuffleExpr` and pass ``plan.variant``.  The
variants never import the planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.futures import ObjectRef, Runtime
from repro.shuffle.simple import simple_shuffle
from repro.shuffle.riffle import riffle_shuffle
from repro.shuffle.riffle_dynamic import riffle_shuffle_dynamic
from repro.shuffle.magnet import magnet_shuffle
from repro.shuffle.push import push_based_shuffle
from repro.shuffle.streaming import RoundDriver, streaming_shuffle

__all__ = [
    "RoundDriver",
    "ShuffleOps",
    "submit",
    "simple_shuffle",
    "riffle_shuffle",
    "riffle_shuffle_dynamic",
    "magnet_shuffle",
    "push_based_shuffle",
    "streaming_shuffle",
]


@dataclass(frozen=True)
class ShuffleOps:
    """One application's operators and per-stage task options.

    ``merge(*blocks)`` combines blocks of one reducer (magnet, push);
    ``merge_columns(*blocks)`` turns F map-major rows of R blocks into R
    merged columns (riffle, riffle_dynamic); ``stream_reduce(state,
    *blocks)`` folds a round into the carried state (streaming).
    """

    map: Callable[[Any], List[Any]]
    reduce: Callable[..., Any]
    merge: Optional[Callable[..., Any]] = None
    merge_columns: Optional[Callable[..., List[Any]]] = None
    stream_reduce: Optional[Callable[..., Any]] = None
    map_options: Optional[Dict[str, Any]] = None
    merge_options: Optional[Dict[str, Any]] = None
    reduce_options: Optional[Dict[str, Any]] = None


def _operator(ops: ShuffleOps, name: str, variant: str) -> Callable[..., Any]:
    fn = getattr(ops, name)
    if fn is None:
        raise ValueError(f"shuffle variant {variant!r} needs ShuffleOps.{name}")
    return fn


def submit(
    rt: Runtime, variant: str, inputs: Sequence[Any], ops: ShuffleOps,
    num_reduces: int, *, merge_factor: int = 4, map_parallelism: int = 2,
    pipeline_depth: int = 1, free_map_outputs: bool = True,
) -> List[ObjectRef]:
    """Submit ``variant``'s task graph; returns one ref per reducer.

    Non-blocking.  The keywords are the variants' own parameters with
    their defaults.  ``streaming`` runs ``inputs`` as two rounds (its
    halves).  An unknown variant, or ``ops`` without the operator the
    variant needs, raises ``ValueError`` before any task is submitted.
    """
    stages = {"map_options": ops.map_options, "reduce_options": ops.reduce_options}
    if variant == "simple":
        return simple_shuffle(rt, inputs, ops.map, ops.reduce, num_reduces, **stages)
    if variant == "streaming":
        half = len(inputs) // 2
        rounds = [rnd for rnd in (inputs[:half], inputs[half:]) if rnd]
        fold = _operator(ops, "stream_reduce", variant)
        return streaming_shuffle(rt, rounds, ops.map, fold, num_reduces, **stages)
    stages["merge_options"] = ops.merge_options
    if variant == "push":
        return push_based_shuffle(
            rt, inputs, ops.map, _operator(ops, "merge", variant), ops.reduce,
            num_reduces, map_parallelism=map_parallelism,
            pipeline_depth=pipeline_depth, free_map_outputs=free_map_outputs,
            **stages,
        )
    if variant == "magnet":
        library, merge_fn = magnet_shuffle, _operator(ops, "merge", variant)
    elif variant in ("riffle", "riffle_dynamic"):
        library = riffle_shuffle if variant == "riffle" else riffle_shuffle_dynamic
        merge_fn = _operator(ops, "merge_columns", variant)
    else:
        raise ValueError(
            f"unknown shuffle variant {variant!r}; expected a "
            f"repro.plan.PLAN_VARIANTS name"
        )
    return library(
        rt, inputs, ops.map, merge_fn, ops.reduce, num_reduces,
        merge_factor=merge_factor, **stages,
    )
