"""Event primitives for the simulation engine.

An :class:`Event` moves through three states: *pending* (created),
*triggered* (a value or error has been set and callback delivery is
scheduled), and *processed* (callbacks have run).  Processes that yield an
already-processed event are resumed on the next queue step at the current
simulated time, so "wait on a done event" is always safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.simcore.engine import Environment


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` is whatever the interrupter passed -- for example the
    failure record of the node a task was running on.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2


class Event:
    """A one-shot occurrence that processes can wait on.

    The engine's own hot paths (this module, :mod:`~repro.simcore.engine`
    and :mod:`~repro.simcore.resources`) read ``_state``/``_value``/
    ``_exception`` directly; the properties below are the public
    interface.  Events are slotted because nearly every engine step
    builds one.
    """

    __slots__ = ("env", "callbacks", "_state", "_value", "_exception")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._state = _PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True once the event triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise RuntimeError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        self._state = _TRIGGERED
        self.env._schedule(0.0, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an error; waiters will see it raised."""
        if self._state:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = _TRIGGERED
        self.env._schedule(0.0, self)
        return self

    # -- engine internals --------------------------------------------------
    def _process_callbacks(self) -> None:
        """Run callbacks exactly once; invoked by the engine."""
        if self._state == _PROCESSED:
            return
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately-ish if already processed."""
        if self._state == _PROCESSED:
            # Deliver on the next engine step at the current time so that
            # callback ordering stays deterministic.
            self.env._schedule_callback(0.0, lambda: callback(self))
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        states = {0: "pending", 1: "triggered", 2: "processed"}
        return f"<{type(self).__name__} {states[self._state]}>"


class Timeout(Event):
    """An event that succeeds ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._state = _TRIGGERED
        env._schedule(delay, self)


class _Condition(Event):
    """Base for AllOf / AnyOf combinators."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if event._state == _PROCESSED:
                self._on_child(event)
            else:
                self._pending += 1
                event.add_callback(self._on_child)
        self._check_empty()

    def _check_empty(self) -> None:
        if not self._events and not self._state:
            self.succeed(self._result())

    def _result(self) -> Any:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when every child event has succeeded.

    Fails as soon as any child fails, with that child's exception.  The
    success value is the list of child values in construction order.
    """

    __slots__ = ()

    def _result(self) -> Any:
        return [event.value for event in self._events]

    def _on_child(self, event: Event) -> None:
        if self._state:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending <= 0 and all(e._state for e in self._events):
            self.succeed(self._result())


class AnyOf(_Condition):
    """Succeeds when the first child succeeds (value: that child's value).

    Fails only if *all* children fail, with the first failure observed.
    """

    __slots__ = ("_first_error", "_failed")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        self._first_error: Optional[BaseException] = None
        self._failed = 0
        super().__init__(env, events)

    def _result(self) -> Any:
        return None

    def _on_child(self, event: Event) -> None:
        if self._state:
            return
        if event._exception is None:
            self.succeed(event._value)
            return
        self._failed += 1
        if self._first_error is None:
            self._first_error = event._exception
        if self._failed == len(self._events):
            self.fail(self._first_error)  # type: ignore[arg-type]
