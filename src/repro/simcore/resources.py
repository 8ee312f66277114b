"""Contended resources: counted slots (CPU cores) and byte servers (I/O).

Two models cover everything the reproduction needs:

- :class:`Resource` -- a fixed number of interchangeable slots with a FIFO
  wait queue.  Used for CPU cores and executor slots.
- :class:`BandwidthResource` -- a FIFO byte server with a fixed service
  rate plus an optional per-operation latency.  Used for disks (where the
  per-op latency models seek time / IOPS limits) and NIC directions.  A
  transfer of *n* bytes occupies the server for ``latency + n/bandwidth``
  seconds; queued transfers are served in arrival order, which is how
  contention between, say, spill writes and shuffle reads arises.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Set

from repro.simcore.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.engine import Environment


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, env: "Environment", resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw the claim (whether queued or already granted)."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` interchangeable slots with FIFO granting."""

    def __init__(self, env: "Environment", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: Set[Request] = set()
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event succeeds when granted."""
        req = Request(self.env, self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot and wake the next waiter, if any."""
        if request not in self._users:
            raise ValueError("release of a request that does not hold a slot")
        self._users.discard(request)
        self._grant_next()

    def _cancel(self, request: Request) -> None:
        if request in self._users:
            self._users.discard(request)
            self._grant_next()
        else:
            try:
                self._waiting.remove(request)
            except ValueError:
                pass

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed()

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name or id(self)} {self.in_use}/{self.capacity}"
            f" queued={self.queue_length}>"
        )


class _Transfer(Event):
    __slots__ = ("nbytes", "latency")

    def __init__(
        self, env: "Environment", nbytes: int, latency: float
    ) -> None:
        super().__init__(env)
        self.nbytes = nbytes
        self.latency = latency


class BandwidthResource:
    """A FIFO byte server: ``service_time = latency + nbytes / bandwidth``.

    Tracks utilisation statistics (busy seconds, bytes served, operation
    count) for the metrics layer.  ``set_failed`` models a device on a dead
    node: queued and future transfers fail with the given exception until
    the device is revived.  ``set_rate_factor`` degrades (or restores) the
    effective service rate without failing anything -- the chaos layer uses
    it to model slow disks and cut NIC bandwidth.
    """

    def __init__(
        self,
        env: "Environment",
        bandwidth_bytes_per_sec: float,
        per_op_latency: float = 0.0,
        name: str = "",
    ) -> None:
        if bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        if per_op_latency < 0:
            raise ValueError("per-op latency must be non-negative")
        self.env = env
        self.bandwidth = float(bandwidth_bytes_per_sec)
        self.per_op_latency = float(per_op_latency)
        self.name = name
        #: Multiplier on the effective service rate; 1.0 is healthy, values
        #: in (0, 1) model a degraded device.  Applied when a transfer is
        #: *served*, so a factor change mid-queue affects waiting transfers.
        self.rate_factor = 1.0
        self._queue: Deque[_Transfer] = deque()
        self._busy = False
        # The transfer in service, and the one bound completion callback
        # every service schedules (built once, not per transfer).
        self._in_service: Optional[_Transfer] = None
        self._on_complete = self._complete
        self._failure: Optional[BaseException] = None
        # statistics
        self.busy_seconds = 0.0
        self.bytes_served = 0
        self.ops_served = 0

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def transfer(self, nbytes: int, latency: Optional[float] = None) -> Event:
        """Enqueue a transfer of ``nbytes``; event succeeds on completion."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        op_latency = self.per_op_latency if latency is None else latency
        xfer = _Transfer(self.env, nbytes, op_latency)
        if self._failure is not None:
            xfer.fail(self._failure)
            return xfer
        self._queue.append(xfer)
        if not self._busy:
            self._serve_next()
        return xfer

    def set_rate_factor(self, factor: float) -> None:
        """Scale the effective service rate by ``factor`` (must be > 0).

        Affects transfers served from now on, including queued ones; a
        transfer already in service completes at the rate it started with.
        """
        if factor <= 0:
            raise ValueError(f"rate factor must be positive, got {factor}")
        self.rate_factor = float(factor)

    def set_failed(self, exc: Optional[BaseException]) -> None:
        """Fail all queued transfers; ``None`` revives the device."""
        self._failure = exc
        if exc is None:
            return
        while self._queue:
            pending = self._queue.popleft()
            if not pending._state:
                pending.fail(exc)

    # -- internals --------------------------------------------------------
    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        xfer = self._queue.popleft()
        duration = xfer.latency + xfer.nbytes / (self.bandwidth * self.rate_factor)
        self.busy_seconds += duration
        self.bytes_served += xfer.nbytes
        self.ops_served += 1
        self._in_service = xfer
        self.env._schedule_callback(duration, self._on_complete)

    def _complete(self) -> None:
        xfer = self._in_service
        self._in_service = None
        if not xfer._state:
            xfer.succeed()
        self._serve_next()

    def __repr__(self) -> str:
        return (
            f"<BandwidthResource {self.name or id(self)} "
            f"{self.bandwidth / 1e6:.0f}MB/s queued={self.queue_length}>"
        )
