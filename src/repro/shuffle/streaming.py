"""Streaming shuffle for online aggregation (§3.2.1, Listing 2).

The shuffle runs in rounds; reduce tasks carry state from round to round,
and after each round an application hook sees the current reducer states
(as refs) so it can compute and surface a partial aggregate -- no
modification of the underlying system required, which is the point of
the section.

:class:`RoundDriver` is the one implementation: the caller submits
rounds one at a time, so a streaming job can discover them a window at
a time.  :func:`streaming_shuffle` drives a known-ahead sequence of
rounds through it with one round in flight.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.futures import ObjectRef, Runtime
from repro.shuffle.common import unwrap_single_return

RoundHook = Callable[[int, List[ObjectRef]], None]


class RoundDriver:
    """Incremental round-based shuffle with stateful reducers.

    ``reduce_fn(state, *blocks)`` folds one round's blocks into the
    reducer's state (``None`` on the first round).  ``on_round`` fires
    after each round's reduce tasks are submitted with that round's
    state refs -- where online aggregation hooks in its asynchronous
    partial-aggregate task.

    ``max_inflight_rounds`` bounds rounds whose reducers may still be
    executing: submitting round ``r`` first blocks until round
    ``r - max_inflight_rounds`` has fully reduced.
    """

    def __init__(
        self,
        rt: Runtime,
        map_fn: Callable[[Any], List[Any]],
        reduce_fn: Callable[..., Any],
        num_reduces: int,
        *,
        on_round: Optional[RoundHook] = None,
        map_options: Optional[Dict[str, Any]] = None,
        reduce_options: Optional[Dict[str, Any]] = None,
        max_inflight_rounds: int = 1,
    ) -> None:
        if num_reduces < 1:
            raise ValueError("num_reduces must be >= 1")
        if max_inflight_rounds < 1:
            raise ValueError("max_inflight_rounds must be >= 1")
        self.rt = rt
        self.num_reduces = num_reduces
        self.on_round = on_round
        self.max_inflight_rounds = max_inflight_rounds
        self._map_task = rt.remote(
            unwrap_single_return(map_fn, num_reduces),
            num_returns=num_reduces,
            **(map_options or {}),
        )
        self._reduce_task = rt.remote(reduce_fn, **(reduce_options or {}))
        self.reduce_states: List[Optional[ObjectRef]] = [None] * num_reduces
        #: State refs of rounds possibly still reducing, oldest first.
        self._pending: Deque[List[Optional[ObjectRef]]] = deque()
        self.rounds_submitted = 0

    def submit_round(self, round_inputs: Sequence[Any]) -> List[ObjectRef]:
        """Run one round over ``round_inputs`` (one element per map task);
        returns the round's reducer-state refs.

        Maps are submitted *before* throttling on earlier rounds, so the
        next round's map work overlaps the previous round's reduces.
        """
        rt = self.rt
        map_results = [self._map_task.remote(part) for part in round_inputs]
        if self.num_reduces == 1:
            map_results = [[ref] for ref in map_results]
        while len(self._pending) >= self.max_inflight_rounds:
            live = [ref for ref in self._pending.popleft() if ref is not None]
            if live:
                rt.wait(live, num_returns=len(live))
        self.reduce_states = [
            self._reduce_task.remote(
                self.reduce_states[r], *[column[r] for column in map_results]
            )
            for r in range(self.num_reduces)
        ]
        self._pending.append(list(self.reduce_states))
        rnd = self.rounds_submitted
        self.rounds_submitted += 1
        if self.on_round is not None:
            self.on_round(rnd, list(self.reduce_states))
        return list(self.reduce_states)  # type: ignore[return-value]

    def finish(self) -> List[ObjectRef]:
        """Final reducer-state refs after the last submitted round
        (at least one round must have been submitted)."""
        if self.rounds_submitted == 0:
            raise ValueError("no rounds were submitted")
        return list(self.reduce_states)  # type: ignore[return-value]


def streaming_shuffle(
    rt: Runtime,
    input_rounds: Sequence[Sequence[Any]],
    map_fn: Callable[[Any], List[Any]],
    reduce_fn: Callable[..., Any],
    num_reduces: int,
    on_round: Optional[RoundHook] = None,
    map_options: Optional[Dict[str, Any]] = None,
    reduce_options: Optional[Dict[str, Any]] = None,
) -> List[ObjectRef]:
    """Round-based shuffle over known-ahead rounds, one round of reducers
    in flight at a time; returns the final reducer-state refs.

    ``reduce_fn`` and ``on_round`` are as in :class:`RoundDriver`.
    """
    if not input_rounds:
        raise ValueError("streaming shuffle needs at least one round")
    driver = RoundDriver(
        rt,
        map_fn,
        reduce_fn,
        num_reduces,
        on_round=on_round,
        map_options=map_options,
        reduce_options=reduce_options,
    )
    for round_inputs in input_rounds:
        driver.submit_round(round_inputs)
    return driver.finish()
