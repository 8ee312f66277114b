"""The event loop and generator-based processes."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.simcore.events import (
    _PROCESSED,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Timeout,
)

ProcessGenerator = Generator[Event, Any, Any]


class Environment:
    """Holds simulated time and the pending-event queue.

    Every heap entry is ``(time, seq, fn)`` where ``fn`` is a zero-argument
    callable: a triggered event's bound ``_process_callbacks`` or a bare
    callback from :meth:`call_later`.  ``seq`` breaks time ties, so entries
    run in the order they were scheduled and ``fn`` is never compared.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    # -- scheduling -------------------------------------------------------
    def _schedule(self, delay: float, event: Event) -> None:
        heapq.heappush(
            self._queue,
            (self.now + delay, next(self._seq), event._process_callbacks),
        )

    def _schedule_callback(self, delay: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), fn))

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._schedule_callback(delay, fn)

    # -- factory helpers ----------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that succeeds when every child has succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that succeeds with the first child that succeeds."""
        return AnyOf(self, events)

    def process(self, generator: ProcessGenerator, name: str = "") -> "Process":
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    # -- execution ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Pop and process one event."""
        when, _seq, fn = heapq.heappop(self._queue)
        if when < self.now:
            raise RuntimeError("event queue went backwards in time")
        self.now = when
        fn()

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or ``until`` is reached.

        When ``until`` is given, time is advanced to exactly ``until`` even
        if the queue drains earlier, mirroring SimPy semantics.
        """
        if until is None:
            while self._queue:
                self.step()
            return
        if until < self.now:
            raise ValueError(f"run(until={until}) is in the past (now={self.now})")
        while self._queue and self._queue[0][0] <= until:
            self.step()
        self.now = until

    def run_until_event(self, event: Event, limit: float = float("inf")) -> Any:
        """Drive the simulation until ``event`` is processed; return its value.

        Raises ``RuntimeError`` if the queue drains (deadlock) or the time
        ``limit`` passes before the event triggers -- both indicate bugs in
        the simulated program rather than expected outcomes.
        """
        while not event.processed:
            if not self._queue:
                raise RuntimeError(
                    f"deadlock: event queue drained at t={self.now} "
                    f"while waiting for {event!r}"
                )
            if self.peek() > limit:
                raise RuntimeError(
                    f"time limit {limit} exceeded waiting for {event!r}"
                )
            self.step()
        return event.value


class Process(Event):
    """A running generator; also an event that triggers on completion.

    The generator yields events; the process resumes when each triggers,
    receiving the event's value (or having its exception thrown in).  The
    process's own completion value is the generator's return value.
    """

    __slots__ = ("name", "_generator", "_waiting_on")

    def __init__(
        self, env: Environment, generator: ProcessGenerator, name: str = ""
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Bootstrap: start executing on the next engine step.
        env._schedule_callback(0.0, self._start)

    def __repr__(self) -> str:
        return f"<Process {self.name} waiting_on={self._waiting_on!r}>"

    def _start(self) -> None:
        if self._state:  # interrupted before it ever ran
            return
        self._advance(self._generator.send, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A no-op if the process already finished.  The event the process was
        waiting on is abandoned: its trigger will be ignored.
        """
        if self._state:
            return
        self._waiting_on = None
        self.env._schedule_callback(
            0.0, lambda: self._advance(self._generator.throw, Interrupt(cause))
        )

    # -- internals --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._state or event is not self._waiting_on:
            return  # stale wakeup (we were interrupted past this wait)
        self._waiting_on = None
        if event._exception is None:
            self._advance(self._generator.send, event._value)
        else:
            self._advance(self._generator.throw, event._exception)

    def _advance(self, step: Callable[[Any], Any], arg: Any) -> None:
        """Run the generator to its next yield: ``step(arg)`` is its
        ``send`` or ``throw``."""
        if self._state:
            return
        try:
            target = step(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # The process did not catch its own interrupt: treat as failure.
            self.fail(RuntimeError(f"process {self.name} died of interrupt"))
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced via the event
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(
                TypeError(
                    f"process {self.name} yielded {target!r}; processes may "
                    "only yield Event instances"
                )
            )
            return
        self._waiting_on = target
        if target._state == _PROCESSED:
            target.add_callback(self._resume)
        else:
            target.callbacks.append(self._resume)
