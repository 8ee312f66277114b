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

``install()`` patches the hot methods once, on their *classes*, for
the whole process -- the data plane never imports this module:

- ``Environment.step`` (heap pop plus callback dispatch) is timed
  under the subsystem the next queued event resumes
  (``engine.dispatch.task``, ``engine.dispatch.driver``, ...; a bare
  callback is ``engine.dispatch.callbackevent``).  It is the root of
  every engine in the process, the Spark and Dask baselines' bare
  environments included, and each step's ``env.now`` advance adds to
  the simulated seconds;
- ``EventBus.emit`` is timed as ``bus.publish``;
- ``Runtime.charge_task`` / ``charge_object`` and the
  ``MetricRegistry`` write paths are timed as ``metrics.charge``;
- the driver host's handoffs (driver Python running between blocking
  calls) are timed as ``driver.exec``.

``uninstall()`` puts back the exact object each class attribute held
-- profiling off is therefore *bit-for-bit* absent, which the golden
digest tests pin.  Overhead when on is a handful of ``perf_counter``
calls per simulated event, bounded (<5% on realistic runs) by
``tests/test_self_profile.py``'s budget test.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Prefix of the per-subsystem handler-dispatch categories.
DISPATCH_PREFIX = "engine.dispatch."

#: The residue category: wall time outside every scope.
UNTRACKED = "untracked"

#: Category of a bare callback on the engine heap (``call_later``, process
#: starts, interrupts, late ``add_callback`` deliveries).  The name is the
#: one the engine's former ``_CallbackEvent`` wrapper produced, so profiles
#: from before and after it was removed stay comparable.
CALLBACK_CATEGORY = DISPATCH_PREFIX + "callbackevent"

#: ``(module, class, methods, category, counter)`` per scoped hook point;
#: ``Environment.step`` is hooked on its own (its category is named per
#: event, and it also advances the simulated clock).
HOOKS: Tuple[Tuple[str, str, Tuple[str, ...], str, str], ...] = (
    ("repro.obs.events", "EventBus", ("emit",), "bus.publish", "bus_publications"),
    ("repro.futures.runtime", "Runtime", ("charge_task", "charge_object"),
     "metrics.charge", "metric_charges"),
    ("repro.obs.registry", "MetricRegistry", ("counter", "gauge_set", "observe"),
     "metrics.charge", "metric_charges"),
    ("repro.futures.driver", "DriverHost", ("_hand_off",), "driver.exec",
     "driver_handoffs"),
)

#: The profiler whose hooks are on the classes now (one per process).
_installed: Optional["SelfProfiler"] = None


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
        prof.install()              # patches the hot methods' classes
        ...run the workload...
        prof.finish()               # uninstalls, stops the wall clock
        print(prof.render())

    ``with SelfProfiler() as prof:`` does the same for one block.

    One install covers every engine the process runs while it lasts (a
    figure benchmark builds one runtime per variant, plus bare engines
    for its baselines); categories, counters, and simulated seconds
    accumulate across them, and the total wall clock runs from the
    first ``start()``/``install()`` to ``finish()``.  Only one profiler
    may be installed at a time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Exclusive seconds per category.
        self.seconds: Dict[str, float] = {}
        #: Hot-loop counters (events_processed, bus_publications,
        #: metric_charges, driver_handoffs, ...).
        self.counts: Dict[str, int] = {}
        #: Exclusive seconds per scope *path* (folded-stack data for the
        #: flamegraph exporter), keyed by the tuple of categories on the
        #: stack at exit time.
        self.folded: Dict[Tuple[str, ...], float] = {}
        #: Simulated seconds the engines advanced while installed.
        self.sim_time_s = 0.0
        # Frames are [category, start, child_s, path]; the folded-stack
        # path is built once at enter so exit stays allocation-light.
        self._stack: List[List[Any]] = []
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        #: ``(owner, attribute, was_own_attribute, original)`` per patch.
        self._patches: List[Tuple[Any, str, bool, Any]] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start the total-wall clock (idempotent; ``install`` calls it)."""
        if self._started_at is None:
            self._started_at = self.clock()

    def finish(self) -> None:
        """Stop the total-wall clock (uninstalling first); idempotent."""
        if self._finished_at is not None:
            return
        self.uninstall()
        if self._started_at is None:
            self._started_at = self.clock()
        self._finished_at = self.clock()

    def __enter__(self) -> "SelfProfiler":
        """``with SelfProfiler() as prof:`` installs for the block and
        finishes (uninstalling) when it exits, exception or not."""
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.finish()

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
        hot paths the class hooks do not cover -- the bench harness
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
    def install(self) -> None:
        """Patch every hook point on its class (engine loop, event bus,
        metrics charging, driver handoffs) for the whole process.
        Refuses while any profiler is installed, and once finished."""
        global _installed
        if _installed is not None:
            raise RuntimeError("a profiler is already installed; uninstall it first")
        if self._finished_at is not None:
            raise RuntimeError("profiler already finished")
        from repro.simcore.engine import Environment

        self.start()
        self._patch(Environment, "step", self._profiled_step(Environment.step))
        for module, class_name, methods, category, counter in HOOKS:
            cls = getattr(importlib.import_module(module), class_name)
            for name in methods:
                self._patch(cls, name, self._scoped(getattr(cls, name), category, counter))
        _installed = self

    def uninstall(self) -> None:
        """Restore every patched class attribute to the object it held.
        Idempotent."""
        global _installed
        while self._patches:
            owner, name, had, original = self._patches.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        if _installed is self:
            _installed = None

    def _patch(self, owner: Any, name: str, replacement: Callable) -> None:
        had = name in vars(owner)
        self._patches.append((owner, name, had, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def _profiled_step(self, step: Callable) -> Callable:
        """``Environment.step`` timed under the category of the event
        about to be popped, adding the step's ``env.now`` advance to
        :attr:`sim_time_s`."""
        counts = self.counts
        enter = self._enter
        exit_ = self._exit
        profiler = self

        def profiled_step(env: Any) -> None:
            counts["events_processed"] = counts.get("events_processed", 0) + 1
            enter(_dispatch_category(env._queue[0][2]))
            before = env.now
            try:
                step(env)
            finally:
                profiler.sim_time_s += env.now - before
                exit_()

        return profiled_step

    def _scoped(self, fn: Callable, category: str, counter: str) -> Callable:
        """A wrapper timing ``fn`` under ``category`` and counting calls."""
        counts = self.counts
        enter = self._enter
        exit_ = self._exit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[counter] = counts.get(counter, 0) + 1
            enter(category)
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
            else "installed"
            if self._patches
            else "idle"
        )
        return (
            f"<SelfProfiler {state}, {len(self.seconds)} categories, "
            f"{self.counts.get('events_processed', 0)} events>"
        )
