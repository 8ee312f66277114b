"""Scoped wall-clock self-profiling of the simulator's own hot paths.

The accounting model is a classic profiler scope stack with *exclusive*
attribution: entering a scope starts its interval, leaving it charges
``elapsed - time_spent_in_child_scopes`` to the scope's category and
rolls the full elapsed interval up into the parent's child-time.  Scope
intervals are properly nested and never overlap, so

    sum(category seconds) + untracked == total wall time

holds by construction (``untracked`` is everything outside any scope:
driver-loop bookkeeping, test harness code, profiler overhead itself).
:meth:`SelfProfiler.coverage_error` reports the residual of that
identity exactly the way the critical-path analyzer proves *its*
sums-to-makespan invariant.

Attachment works by shadowing hot methods on *instances* -- never by
editing classes and never by the data plane importing this module:

- ``Environment.step`` (heap pop plus callback dispatch) is timed
  under the subsystem the next queued event resumes
  (``engine.dispatch.task``, ``engine.dispatch.driver``, ...; a bare
  callback is ``engine.dispatch.callbackevent``);
- ``Environment._schedule`` / ``_schedule_callback`` count heap pushes;
- ``EventBus.emit`` is timed as ``bus.publish``;
- ``Runtime.charge_task`` / ``charge_object`` and the
  ``MetricRegistry`` write paths are timed as ``metrics.charge``;
- the driver host's handoffs (driver Python running between blocking
  calls) are timed as ``driver.exec``.

``detach()`` deletes the instance shadows, restoring the pristine class
methods -- profiling off is therefore *bit-for-bit* absent, which the
golden digest tests pin.  Overhead when on is a handful of
``perf_counter`` calls per simulated event, bounded (<5% on realistic
runs) by ``tests/test_self_profile.py``'s budget test.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

#: Prefix of the per-subsystem handler-dispatch categories.
DISPATCH_PREFIX = "engine.dispatch."

#: The residue category: wall time outside every scope.
UNTRACKED = "untracked"

#: Category of a bare callback on the engine heap (``call_later``, process
#: starts, interrupts, late ``add_callback`` deliveries).  The name is the
#: one the engine's former ``_CallbackEvent`` wrapper produced, so profiles
#: from before and after it was removed stay comparable.
CALLBACK_CATEGORY = DISPATCH_PREFIX + "callbackevent"


def _dispatch_category(event: Any) -> str:
    """The ``engine.dispatch.<subsystem>`` category for a heap head.

    The engine's heap holds zero-argument callables: an event's bound
    ``_process_callbacks`` is classified by that event, any other callable
    is :data:`CALLBACK_CATEGORY`.  An event may also be passed directly.

    Subsystem resolution, cheapest-first: the event's own process name
    (``Process`` completions), else the owner of its first callback
    (a ``Process._resume`` bound method names the process the event
    resumes: ``task-...``, ``driver-get``, ``spark-map-...``), else the
    event's class name.  Name stems before the first ``-``/``:`` keep
    the category space small (``task``, ``driver``, ``job``, ...).
    """
    if callable(event):
        if getattr(event, "__name__", None) != "_process_callbacks":
            return CALLBACK_CATEGORY
        event = event.__self__
    name = getattr(event, "name", None)
    if not isinstance(name, str) or not name:
        callbacks = event.callbacks
        if callbacks:
            owner = getattr(callbacks[0], "__self__", None)
            name = getattr(owner, "name", None)
    if isinstance(name, str) and name:
        stem = name.split("-", 1)[0].split(":", 1)[0] or "process"
    else:
        stem = type(event).__name__.strip("_").lower()
    return DISPATCH_PREFIX + stem


class SelfProfiler:
    """Wall-clock attribution, hot-loop counters, and throughput for
    the simulator itself.

    Typical use (what ``benchmarks/_harness.py`` does under
    ``--profile``)::

        prof = SelfProfiler()
        prof.attach(runtime)        # instruments this runtime's instances
        ...run the workload...
        prof.detach()               # restores the pristine methods
        prof.finish()               # stops the total-wall clock
        print(prof.render())

    One profiler may attach to several runtimes in sequence (a figure
    benchmark builds one per variant); categories, counters, and
    simulated seconds accumulate across attachments, and the total wall
    clock runs from the first ``start()``/``attach()`` to ``finish()``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Exclusive seconds per category.
        self.seconds: Dict[str, float] = {}
        #: Hot-loop counters (events_processed, heap_pushes,
        #: bus_publications, metric_charges, driver_handoffs, ...).
        self.counts: Dict[str, int] = {}
        #: Exclusive seconds per scope *path* (folded-stack data for the
        #: flamegraph exporter), keyed by the tuple of categories on the
        #: stack at exit time.
        self.folded: Dict[Tuple[str, ...], float] = {}
        #: Simulated seconds advanced while attached (across runtimes).
        self.sim_time_s = 0.0
        # Frames are [category, start, child_s, path]; the folded-stack
        # path is built once at enter so exit stays allocation-light.
        self._stack: List[List[Any]] = []
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        self._runtime: Optional[Any] = None
        self._patched: List[Tuple[Any, str]] = []
        self._env_now_at_attach = 0.0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start the total-wall clock (idempotent; ``attach`` calls it)."""
        if self._started_at is None:
            self._started_at = self.clock()

    def finish(self) -> None:
        """Stop the total-wall clock (detaching first if still attached);
        idempotent."""
        if self._finished_at is not None:
            return
        if self._runtime is not None:
            self.detach()
        if self._started_at is None:
            self._started_at = self.clock()
        self._finished_at = self.clock()

    @property
    def total_wall_s(self) -> float:
        """Measured wall seconds from ``start()`` to ``finish()`` (to
        *now* while still running)."""
        if self._started_at is None:
            return 0.0
        end = self._finished_at if self._finished_at is not None else self.clock()
        return end - self._started_at

    # -- the scope stack ---------------------------------------------------
    def _enter(self, category: str) -> None:
        stack = self._stack
        path = stack[-1][3] + (category,) if stack else (category,)
        stack.append([category, self.clock(), 0.0, path])

    def _exit(self) -> None:
        stack = self._stack
        frame = stack.pop()
        elapsed = self.clock() - frame[1]
        exclusive = elapsed - frame[2]
        category = frame[0]
        seconds = self.seconds
        seconds[category] = seconds.get(category, 0.0) + exclusive
        folded = self.folded
        path = frame[3]
        folded[path] = folded.get(path, 0.0) + exclusive
        if stack:
            stack[-1][2] += elapsed

    @contextmanager
    def scope(self, category: str) -> Iterator[None]:
        """Time a block under ``category`` (nest freely; exclusive
        accounting keeps the sum identity).  Public entry for obs-side
        hot paths the instance shadows cannot reach -- the bench harness
        wraps span derivation and trace export with it."""
        self.start()
        self._enter(category)
        try:
            yield
        finally:
            self._exit()

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a hot-loop counter by ``amount``."""
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- instrumentation ---------------------------------------------------
    def attach(self, runtime: Any) -> None:
        """Instrument ``runtime``'s hot paths (engine loop, event bus,
        metrics charging, driver handoffs) by shadowing the bound
        methods on the instances.  Also publishes itself as
        ``runtime.self_profiler`` so :func:`repro.obs.report.record_run`
        can stamp the profile into the run summary."""
        if self._runtime is not None:
            raise RuntimeError("profiler is already attached; detach first")
        if self._finished_at is not None:
            raise RuntimeError("profiler already finished")
        self.start()
        self._runtime = runtime
        env = runtime.env
        self._env_now_at_attach = env.now
        queue = env._queue
        self._shadow(
            env,
            "step",
            self._scoped(
                env.step,
                lambda: _dispatch_category(queue[0][2]),
                "events_processed",
            ),
        )
        self._shadow(env, "_schedule", self._counting(env._schedule, "heap_pushes"))
        self._shadow(
            env,
            "_schedule_callback",
            self._counting(env._schedule_callback, "heap_pushes"),
        )
        self._shadow(
            runtime.bus,
            "emit",
            self._scoped(runtime.bus.emit, "bus.publish", "bus_publications"),
        )
        self._shadow(
            runtime,
            "charge_task",
            self._scoped(runtime.charge_task, "metrics.charge", "metric_charges"),
        )
        self._shadow(
            runtime,
            "charge_object",
            self._scoped(runtime.charge_object, "metrics.charge", "metric_charges"),
        )
        metrics = runtime.metrics
        for method in ("counter", "gauge_set", "observe"):
            self._shadow(
                metrics,
                method,
                self._scoped(
                    getattr(metrics, method), "metrics.charge", "metric_charges"
                ),
            )
        host = getattr(runtime, "_driver", None)
        if host is not None:
            self._shadow(
                host,
                "_hand_off",
                self._scoped(host._hand_off, "driver.exec", "driver_handoffs"),
            )
        self.count("runtimes_attached", 1)
        runtime.self_profiler = self

    def detach(self) -> None:
        """Remove every instance shadow, restoring the pristine class
        methods; accumulates the simulated seconds the attachment
        covered.  Idempotent."""
        if self._runtime is None:
            return
        for obj, name in reversed(self._patched):
            try:
                delattr(obj, name)
            except AttributeError:
                pass
        self._patched.clear()
        self.sim_time_s += self._runtime.env.now - self._env_now_at_attach
        self._runtime = None

    @classmethod
    @contextmanager
    def attached(cls, runtime: Any) -> Iterator["SelfProfiler"]:
        """Context manager: attach to ``runtime``, detach + finish on
        exit, yielding the profiler."""
        profiler = cls()
        profiler.attach(runtime)
        try:
            yield profiler
        finally:
            profiler.finish()

    def _shadow(self, obj: Any, name: str, replacement: Callable) -> None:
        """Install an instance-attribute shadow over a class method."""
        if name in vars(obj):
            raise RuntimeError(
                f"{type(obj).__name__}.{name} already carries an instance "
                f"shadow; refusing to stack profilers"
            )
        setattr(obj, name, replacement)
        self._patched.append((obj, name))

    def _counting(self, fn: Callable, counter: str) -> Callable:
        """A pass-through wrapper that only bumps ``counter``."""
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _scoped(
        self,
        fn: Callable,
        category: Union[str, Callable[[], str]],
        counter: str,
    ) -> Callable:
        """A wrapper timing ``fn`` under ``category`` and counting calls.
        A callable ``category`` names the scope at call time (the engine
        step keys it by the event about to be popped)."""
        counts = self.counts
        enter = self._enter
        exit_ = self._exit
        dynamic = callable(category)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[counter] = counts.get(counter, 0) + 1
            enter(category() if dynamic else category)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    # -- results -----------------------------------------------------------
    def tracked_s(self) -> float:
        """Seconds attributed to any category (sum of exclusives)."""
        return sum(self.seconds.values())

    def untracked_s(self) -> float:
        """Wall seconds outside every scope (total minus tracked,
        floored at zero)."""
        return max(0.0, self.total_wall_s - self.tracked_s())

    def breakdown(self) -> Dict[str, float]:
        """Exclusive seconds per category, plus the ``untracked``
        residue -- the values whose sum equals :attr:`total_wall_s`."""
        out = dict(sorted(self.seconds.items()))
        out[UNTRACKED] = self.untracked_s()
        return out

    def coverage_error(self) -> float:
        """|sum(breakdown) - total wall| / total wall -- ~0 by
        construction; reported so the CLI and the acceptance tests can
        prove the full-coverage invariant on real runs (mirrors
        ``CriticalPath.coverage_error``)."""
        total = self.total_wall_s
        if total <= 0:
            return 0.0
        return abs(sum(self.breakdown().values()) - total) / total

    def throughput(self) -> Dict[str, float]:
        """The headline speed metrics: simulated events retired per wall
        second and simulated seconds advanced per wall second."""
        total = self.total_wall_s
        events = self.counts.get("events_processed", 0)
        return {
            "events_processed": float(events),
            "wall_time_s": total,
            "sim_time_s": self.sim_time_s,
            "events_per_wall_s": events / total if total > 0 else 0.0,
            "sim_s_per_wall_s": self.sim_time_s / total if total > 0 else 0.0,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary: throughput, category seconds and
        fractions, counters, and the coverage residual.  This is what
        ``finish_bench`` stamps into ``BENCH_*.json`` as the ``profile``
        section and ``record_run`` embeds in ``run.summary``."""
        total = self.total_wall_s
        breakdown = self.breakdown()
        fractions = {
            cat: (s / total if total > 0 else 0.0)
            for cat, s in breakdown.items()
        }
        out: Dict[str, Any] = dict(self.throughput())
        out["categories"] = breakdown
        out["fractions"] = fractions
        out["counters"] = dict(sorted(self.counts.items()))
        out["coverage_error"] = self.coverage_error()
        return out

    def render(self, top_k: int = 12) -> str:
        """A printable breakdown: throughput header, the top categories
        with shares, and the hot-loop counters."""
        total = self.total_wall_s
        thr = self.throughput()
        parts = [
            f"Self-profile: {total:.3f}s wall, "
            f"{int(thr['events_processed'])} events "
            f"({thr['events_per_wall_s']:,.0f} events/s, "
            f"{thr['sim_s_per_wall_s']:.2f} sim-s/wall-s; "
            f"coverage error {100 * self.coverage_error():.3f}%)",
        ]
        ranked = sorted(self.breakdown().items(), key=lambda kv: -kv[1])
        for category, secs in ranked[:top_k]:
            share = 100.0 * secs / total if total > 0 else 0.0
            parts.append(f"  {category:<28} {secs:9.4f}s  {share:5.1f}%")
        if self.counts:
            counters = ", ".join(
                f"{k}={v}" for k, v in sorted(self.counts.items())
            )
            parts.append(f"  counters: {counters}")
        return "\n".join(parts)

    def __repr__(self) -> str:
        state = (
            "finished"
            if self._finished_at is not None
            else "attached"
            if self._runtime is not None
            else "idle"
        )
        return (
            f"<SelfProfiler {state}, {len(self.seconds)} categories, "
            f"{self.counts.get('events_processed', 0)} events>"
        )
