"""End-to-end backpressure: bounded in-flight windows, throttled sources.

A window is *in flight* from the moment it closes (its repartition round
is submitted) until its aggregate becomes visible.  The
:class:`BackpressureController` bounds that count: before a streaming
job closes another window it must :meth:`admit`, which blocks -- by
waiting on the *oldest* in-flight window's aggregate ref -- while the
bound is hit.  Each stall is published as a ``stream.backpressure`` bus
event (reason ``inflight_windows``), so a report can show exactly when
the source was throttled.

Because the load is open-loop, throttling never deletes work: records
keep arriving on their pre-drawn timeline and simply wait in the stalled
window, paying the delay as record latency.  That is the trade the tier
makes -- bounded store footprint for visible tail latency -- and the
bench's two arms measure both sides of it.
"""

from __future__ import annotations

from typing import Deque, List, Optional, Set

from collections import deque

from repro.futures import ObjectRef, Runtime


class BackpressureController:
    """Bounds closed-but-not-yet-visible windows for one streaming job."""

    def __init__(
        self,
        rt: Runtime,
        *,
        max_inflight_windows: int,
        job_id: Optional[str] = None,
        tenant: Optional[str] = None,
        enabled: bool = True,
    ) -> None:
        if max_inflight_windows < 1:
            raise ValueError("max_inflight_windows must be >= 1")
        self.rt = rt
        self.max_inflight_windows = max_inflight_windows
        self.job_id = job_id
        #: Owning tenant, stamped onto every stall event so per-tenant
        #: stall series need no job -> tenant join downstream.
        self.tenant = tenant
        self.enabled = enabled
        #: (window index, aggregate ref), oldest first.
        self._inflight: Deque[tuple] = deque()
        self._visible: Set[int] = set()
        #: Largest in-flight count ever observed (the invariant tests pin
        #: ``peak_inflight <= max_inflight_windows`` when enabled).
        self.peak_inflight = 0
        #: Total admit-side stalls (also counted in runtime metrics).
        self.stalls = 0

    @property
    def inflight(self) -> int:
        """Windows currently closed but not aggregate-visible."""
        self._prune()
        return len(self._inflight)

    def _prune(self) -> None:
        while self._inflight and self._inflight[0][0] in self._visible:
            self._visible.discard(self._inflight[0][0])
            self._inflight.popleft()

    def admit(self) -> None:
        """Block until another window may close (no-op when disabled).

        Stalls while the in-flight bound is reached.
        """
        if not self.enabled:
            return
        rt = self.rt
        while True:
            self._prune()
            if len(self._inflight) < self.max_inflight_windows:
                return
            self.stalls += 1
            rt.bus.emit(
                "stream.backpressure",
                job=self.job_id,
                reason="inflight_windows",
                tenant=self.tenant,
                inflight=len(self._inflight),
            )
            oldest_ref: ObjectRef = self._inflight[0][1]
            rt.wait([oldest_ref], num_returns=1)

    def track(self, window_index: int, aggregate_ref: ObjectRef) -> None:
        """Register a just-closed window; call right after submitting its
        aggregate."""
        self._prune()
        self._inflight.append((window_index, aggregate_ref))
        self.peak_inflight = max(self.peak_inflight, len(self._inflight))

    def mark_visible(self, window_index: int) -> None:
        """Note a window's aggregate became visible (from ``on_ready``)."""
        self._visible.add(window_index)

    def drain(self) -> None:
        """Block until every tracked window's aggregate is computed."""
        self._prune()
        refs: List[ObjectRef] = [ref for _, ref in self._inflight]
        if refs:
            self.rt.wait(refs, num_returns=len(refs))
        self._prune()

    def __repr__(self) -> str:
        return (
            f"<BackpressureController inflight={self.inflight}/"
            f"{self.max_inflight_windows} stalls={self.stalls} "
            f"{'on' if self.enabled else 'off'}>"
        )
