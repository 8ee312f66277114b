"""Deterministic co-simulation of plain-Python driver code.

The paper's shuffle libraries are ordinary blocking Python programs
(Listings 1-3): they call ``.remote()`` eagerly and block on ``get`` /
``wait``.  To run such code unchanged against the simulated cluster, each
driver executes on its own thread with a strict handoff against the
simulation loop: at any instant exactly one of {a driver thread, the
simulation loop} is running.

- While a driver runs, the simulation is parked, so driver-side calls
  into runtime state need no locks and simulated time does not advance
  (driver CPU time is free, as in the paper's model where the driver only
  submits metadata).
- When a driver blocks (``get``, ``wait``, ``sleep``), it hands the
  loop a wake-up event; the loop steps the simulation until that event is
  processed, then hands control back.

A host serves one *primary* driver (started by :meth:`DriverHost.run`)
plus any number of *subdrivers* it spawns (:meth:`DriverHost.spawn`).
Subdrivers are how the multi-tenant job control plane (:mod:`repro.jobs`)
runs many concurrent blocking jobs against one cluster: each job is an
ordinary driver program, parked and resumed cooperatively.  Handoffs
follow spawn order among runnable drivers, so the interleaving is a
deterministic function of the program, not of OS scheduling.

Runnable drivers wait in a heap keyed by spawn index: a driver enters it
when spawned and again when the event it parked on is processed (a
callback on that event, so no engine events are added).  Each hand-off
pops the earliest-spawned runnable driver in O(log n), however many
drivers the host has served.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simcore import Environment, Event


class DriverError(RuntimeError):
    """The simulation deadlocked or was misused from the driver."""


def _held_lock() -> threading.Lock:
    """A lock created held, used as a binary semaphore with no permits.

    ``release`` from any thread grants the one permit and ``acquire``
    takes it.  The controller and the drivers alternate strictly, so a
    permit is never released twice.
    """
    lock = threading.Lock()
    lock.acquire()
    return lock


class _DriverChannel:
    """One cooperatively scheduled driver thread and its handoff state."""

    def __init__(
        self, host: "DriverHost", index: int, name: str, label: Optional[str]
    ) -> None:
        self.host = host
        #: Spawn order on the host: the ready heap's key.
        self.index = index
        self.name = name
        #: Opaque tag for work submitted while this driver runs (the jobs
        #: layer sets it to the job id so tasks are attributed).
        self.label = label
        #: Released by the controller to resume this driver.  A lock used
        #: as a binary semaphore (created held): the hand-off alternates
        #: strictly, and a raw lock is cheaper than ``threading.Semaphore``.
        self.sem = _held_lock()
        #: The event this driver is parked on (None = runnable).
        self.wake: Optional[Event] = None
        #: ("ok", value) or ("err", exc) once the body returned.
        self.outcome: Optional[Tuple[str, Any]] = None
        #: Simulation event triggered with the body's result at completion
        #: (what :meth:`DriverHost.join` blocks on).
        self.done: Event = host.env.event()
        self.thread: Optional[threading.Thread] = None
        #: Appended to the callbacks of the event this driver parks on.  A
        #: plain function, not a bound method: the self-profiler names an
        #: event's dispatch after its first callback's owner.
        self.on_wake: Callable[[Event], None] = lambda _event: host._wake(self)

    @property
    def finished(self) -> bool:
        return self.outcome is not None

    def start(self, fn: Callable[..., Any], args: Any, kwargs: Any) -> None:
        """Launch the thread; it parks until the controller resumes it."""

        def body() -> None:
            self.sem.acquire()  # wait for the first handoff
            try:
                result = fn(*args, **kwargs)
                self.outcome = ("ok", result)
            except BaseException as exc:  # noqa: BLE001 - re-raised at join/run
                self.outcome = ("err", exc)
            finally:
                self.host._sim_sem.release()

        self.thread = threading.Thread(
            target=body, name=f"repro-{self.name}", daemon=True
        )
        self.thread.start()

    def __repr__(self) -> str:
        state = (
            "finished" if self.finished
            else "parked" if self.wake is not None and not self.wake.processed
            else "runnable"
        )
        return f"<driver {self.name} {state}>"


class DriverHandle:
    """Public handle on a spawned subdriver (see :meth:`DriverHost.spawn`).

    ``done`` is a simulation event that fires with the subdriver's return
    value (or its exception) when the body finishes; pass the handle to
    :meth:`DriverHost.join` to block on it from another driver.
    """

    def __init__(self, channel: _DriverChannel) -> None:
        self._channel = channel

    @property
    def name(self) -> str:
        """The subdriver's diagnostic name."""
        return self._channel.name

    @property
    def label(self) -> Optional[str]:
        """The work-attribution label the subdriver was spawned with."""
        return self._channel.label

    @property
    def done(self) -> Event:
        """Completion event (fires with the body's result, or its error)."""
        return self._channel.done

    @property
    def finished(self) -> bool:
        """True once the subdriver's body has returned or raised."""
        return self._channel.finished

    def __repr__(self) -> str:
        return f"<DriverHandle {self._channel!r}>"


class DriverHost:
    """Runs one primary driver (plus spawned subdrivers) against a
    simulation environment, one thread at a time."""

    def __init__(self, env: Environment, bus: Optional[Any] = None) -> None:
        self.env = env
        #: Optional structured event bus (:class:`repro.obs.EventBus`);
        #: subdriver lifecycles publish ``driver.spawn``/``driver.finish``.
        self.bus = bus
        #: Released by a driver when it parks or finishes; a held lock,
        #: like each channel's ``sem``.
        self._sim_sem = _held_lock()
        #: Live drivers of the active run, in spawn order; a driver leaves
        #: when it is reaped.
        self._channels: Dict[threading.Thread, _DriverChannel] = {}
        #: Runnable drivers as ``(spawn index, channel)``.
        self._ready: List[Tuple[int, _DriverChannel]] = []
        self._spawned = itertools.count()
        self._seq = itertools.count()
        self._active = False

    @property
    def in_driver(self) -> bool:
        """True when called from a driver thread of an active run."""
        return self._active and threading.current_thread() in self._channels

    def current_label(self) -> Optional[str]:
        """The label of the driver thread making this call (None outside
        drivers or for unlabeled drivers) -- the task-attribution hook."""
        channel = self._channels.get(threading.current_thread())
        return channel.label if channel is not None else None

    # -- the controller loop -------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Execute ``fn(*args, **kwargs)`` as the primary driver; return its
        result.

        Must be called from the simulation's controlling thread.  The
        simulation advances only while every driver is blocked.  Raises
        :class:`DriverError` if the primary returns while spawned
        subdrivers are still running -- a driver that forks jobs must join
        them (the job control plane always does).
        """
        if self._active:
            raise DriverError("a driver is already running")
        self._active = True
        try:
            primary = self._make_channel(fn, args, kwargs, name="driver", label=None)
            ready = self._ready
            env = self.env
            inf = float("inf")
            # Runs once per engine event: ``outcome`` is read directly
            # rather than through ``finished``.
            while primary.outcome is None:
                if ready:
                    self._hand_off(heapq.heappop(ready)[1])
                    continue
                if env.peek() == inf:
                    parked = ", ".join(
                        f"{c.name} on {c.wake!r}" for c in self._channels.values()
                    )
                    raise DriverError(
                        f"simulation deadlock at t={self.env.now}: drivers "
                        f"blocked ({parked}) but no events remain"
                    )
                env.step()
            if primary.thread is not None:
                primary.thread.join(timeout=30)
            kind, value = primary.outcome  # type: ignore[misc]
            if kind == "err":
                raise value
            live = [c.name for c in self._channels.values()]
            if live:
                raise DriverError(
                    f"primary driver returned with subdrivers still "
                    f"running: {live}; join them before returning"
                )
            return value
        finally:
            self._active = False
            self._channels.clear()
            self._ready.clear()

    def _make_channel(
        self,
        fn: Callable[..., Any],
        args: Any,
        kwargs: Any,
        name: str,
        label: Optional[str],
    ) -> _DriverChannel:
        channel = _DriverChannel(self, next(self._spawned), name=name, label=label)
        channel.start(fn, args, kwargs)
        assert channel.thread is not None
        self._channels[channel.thread] = channel
        heapq.heappush(self._ready, (channel.index, channel))
        return channel

    def _wake(self, channel: _DriverChannel) -> None:
        """The event ``channel`` parked on was processed: make it runnable.

        Only live drivers of the active run enter the heap.  A driver left
        parked by an aborted run keeps its callback on a pending event;
        when that fires during a later run, the driver stays parked.
        """
        if self._channels.get(channel.thread) is channel:  # type: ignore[arg-type]
            heapq.heappush(self._ready, (channel.index, channel))

    def _hand_off(self, channel: _DriverChannel) -> None:
        """Run ``channel`` until it parks or finishes; then reap."""
        channel.wake = None
        channel.sem.release()
        self._sim_sem.acquire()
        if channel.finished:
            del self._channels[channel.thread]  # type: ignore[arg-type]
            kind, value = channel.outcome  # type: ignore[misc]
            if self.bus is not None and channel.label is not None:
                self.bus.emit(
                    "driver.finish",
                    job=channel.label,
                    name=channel.name,
                    ok=kind == "ok",
                )
            # Triggering env events is safe here: the simulation is parked.
            if kind == "ok":
                channel.done.succeed(value)
            else:
                channel.done.fail(value)

    # -- called from driver threads -------------------------------------------
    def block_on(self, event: Event) -> Any:
        """Park the calling driver until ``event`` is processed; return its
        value.

        Raises the event's exception (in the driver) if it failed.
        """
        channel = self._channels.get(threading.current_thread())
        if channel is None or not self._active:
            raise DriverError(
                "blocking driver APIs (get/wait/sleep) may only be called "
                "from inside a Runtime.run() driver function"
            )
        channel.wake = event
        if event.processed:
            heapq.heappush(self._ready, (channel.index, channel))
        else:
            event.callbacks.append(channel.on_wake)
        self._sim_sem.release()
        channel.sem.acquire()
        return event.value

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str = "",
        label: Optional[str] = None,
        **kwargs: Any,
    ) -> DriverHandle:
        """Start ``fn`` as a concurrent subdriver; returns a handle.

        May only be called from a running driver thread (the simulation is
        parked then, so registration is race-free).  The subdriver starts
        parked and first runs when the spawning driver next blocks; it may
        use every blocking driver API and spawn further subdrivers.
        ``label`` tags tasks submitted while the subdriver runs (the jobs
        layer passes the job id).
        """
        if not self.in_driver:
            raise DriverError("spawn() must be called from a running driver")
        seq = next(self._seq)
        channel = self._make_channel(
            fn, args, kwargs, name=name or f"subdriver-{seq}", label=label
        )
        if self.bus is not None and label is not None:
            self.bus.emit("driver.spawn", job=label, name=channel.name)
        return DriverHandle(channel)

    def join(self, handle: DriverHandle) -> Any:
        """Block the calling driver until ``handle``'s subdriver finishes;
        return its result or re-raise its error."""
        return self.block_on(handle.done)
