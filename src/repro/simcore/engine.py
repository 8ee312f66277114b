"""The event loop and generator-based processes."""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)

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
    """Holds simulated time and the pending entries.

    An entry is a zero-argument callable: a triggered event's bound
    ``_process_callbacks`` or a bare callback from :meth:`call_later`.
    Entries live in two structures:

    - the heap ``_queue`` of ``(time, seq, fn)`` for entries due later
      than the time they were scheduled at.  ``seq`` breaks time ties, so
      they run in scheduling order and ``fn`` is never compared;
    - the FIFO ``_due`` for entries due at the time they were scheduled
      at (zero delay, or a delay that float rounding absorbs into
      ``now``).  They need no key: they are all due now, in append order.

    One rule orders them: :meth:`step` runs heap entries due at ``now``
    first, then the FIFO head, and only then advances the clock to the
    heap head.  A heap entry due at ``now`` was scheduled before the clock
    reached ``now``, so it precedes every FIFO entry in scheduling order;
    entries therefore run exactly in ``(time, seq)`` order, as if every
    one were on the heap.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._due: Deque[Callable[[], None]] = deque()
        self._seq = itertools.count()

    # -- scheduling -------------------------------------------------------
    def _schedule_callback(self, delay: float, fn: Callable[[], None]) -> None:
        now = self.now
        when = now + delay
        if when == now:
            self._due.append(fn)
        else:
            heapq.heappush(self._queue, (when, next(self._seq), fn))

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
        """Time of the next entry, or ``inf`` if nothing is pending."""
        if self._due:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")

    def next_entry(self) -> Optional[Callable[[], None]]:
        """The entry the next :meth:`step` runs, or None if nothing is
        pending."""
        queue = self._queue
        if queue and (queue[0][0] <= self.now or not self._due):
            return queue[0][2]
        return self._due[0] if self._due else None

    def step(self) -> None:
        """Run one entry: a heap entry due now, else the FIFO head, else
        the heap head after advancing the clock to it."""
        queue = self._queue
        now = self.now
        if queue and queue[0][0] <= now:
            when, _seq, fn = heapq.heappop(queue)
            if when < now:
                raise RuntimeError("event queue went backwards in time")
        elif self._due:
            fn = self._due.popleft()
        else:
            self.now, _seq, fn = heapq.heappop(queue)
        fn()

    def run(self, until: Optional[float] = None) -> None:
        """Process entries until none are pending or ``until`` is reached.

        When ``until`` is given, time is advanced to exactly ``until`` even
        if the entries drain earlier, mirroring SimPy semantics.
        """
        queue, due = self._queue, self._due
        if until is None:
            while due or queue:
                self.step()
            return
        if until < self.now:
            raise ValueError(f"run(until={until}) is in the past (now={self.now})")
        while due or (queue and queue[0][0] <= until):
            self.step()
        self.now = until

    def run_until_event(self, event: Event, limit: float = float("inf")) -> Any:
        """Drive the simulation until ``event`` is processed; return its value.

        Raises ``RuntimeError`` if nothing is pending (deadlock) or the time
        ``limit`` passes before the event triggers -- both indicate bugs in
        the simulated program rather than expected outcomes.
        """
        while not event.processed:
            if not self._due and not self._queue:
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

    __slots__ = ("name", "_send", "_throw", "_waiting_on")

    def __init__(
        self, env: Environment, generator: ProcessGenerator, name: str = ""
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self.name = name or getattr(generator, "__name__", "process")
        self._send = generator.send
        self._throw = generator.throw
        self._waiting_on: Optional[Event] = None
        # Bootstrap: start executing on the next engine step.
        env._schedule_callback(0.0, self._start)

    def __repr__(self) -> str:
        return f"<Process {self.name} waiting_on={self._waiting_on!r}>"

    def _start(self) -> None:
        if self._state:  # interrupted before it ever ran
            return
        self._advance(self._send, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A no-op if the process already finished.  The event the process was
        waiting on is abandoned: its trigger will be ignored.
        """
        if self._state:
            return
        self._waiting_on = None
        self.env._schedule_callback(
            0.0, lambda: self._advance(self._throw, Interrupt(cause))
        )

    # -- internals --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._state or event is not self._waiting_on:
            return  # stale wakeup (we were interrupted past this wait)
        self._waiting_on = None
        if event._exception is None:
            self._advance(self._send, event._value)
        else:
            self._advance(self._throw, event._exception)

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
