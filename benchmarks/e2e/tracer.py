"""Boundary tracer: exclusive wall time per layer, measured from outside.

The tracer wraps the public entry points of each layer *at class level*
(and module functions wherever a module holds a reference to them), so
it needs nothing from the program under test and :meth:`LayerTracer.
uninstall` puts back the exact original objects.

Accounting model.  The simulator runs strictly one thread at a time:
the controller loop in ``DriverHost.run`` and each driver thread hand
control to one another through semaphores.  The tracer therefore keeps
a single global timeline.  At every span boundary it charges the time
since the previous boundary to the innermost open span of the thread
that was running, then pushes or pops on the calling thread's own span
stack.  The hand-off points are traced explicitly:

- ``DriverHost.block_on`` parks a driver: from then on time belongs to
  the controller, so a parked driver accrues nothing (waiting is not
  busy time) while its ``Runtime.get`` span stays open;
- a driver body starting or returning (the ``fn`` handed to
  ``DriverHost.run``/``spawn``, traced as the ``app`` span) moves the
  clock to or from that driver thread.

Because every interval is charged exactly once, the self times of all
spans plus ``untracked`` (time when the running thread has no open
span) add up to the traced window's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Raw spans kept for the Chrome trace; aggregates cover every span.
MAX_SPANS = 100_000

#: Layer of the driver-thread root span (driver code outside every layer).
APP = "app"

#: ``(layer, module, class, methods)``.  ``methods`` of ``None`` means
#: every public function defined on the class (or, with ``class`` of
#: ``None``, on every class defined in the module).
CLASS_TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]], ...] = (
    ("simcore.engine", "repro.simcore.engine", "Environment", ("step",)),
    ("simcore.resources", "repro.simcore.resources", "Resource",
     ("request", "release")),
    ("simcore.resources", "repro.simcore.resources", "BandwidthResource",
     ("transfer",)),
    ("cluster.fabric", "repro.cluster.fabric", "Cluster", ("send",)),
    ("cluster.node", "repro.cluster.node", "Node", ("disk_write", "disk_read")),
    ("futures.runtime", "repro.futures.runtime", "Runtime",
     ("submit_task", "task_finished", "task_failed", "incref", "decref",
      "free", "on_ready", "get", "wait", "put")),
    ("futures.runtime.charge", "repro.futures.runtime", "Runtime",
     ("charge_task", "charge_object")),
    ("futures.scheduler", "repro.futures.scheduler", "Scheduler",
     ("dispatch", "place", "task_done", "placement_view")),
    ("futures.policies", "repro.futures.policies.defaults", None, None),
    ("futures.object_store", "repro.futures.object_store", "ObjectStore",
     ("allocate", "try_allocate", "free", "pin", "unpin", "pump",
      "demote_to_cached", "spill_candidates")),
    ("futures.directory", "repro.futures.directory", "ObjectDirectory", None),
    ("futures.spilling", "repro.futures.spilling", "SpillManager",
     ("kick", "restore_read", "shared_restore_read", "adopt", "forget")),
    ("futures.lineage", "repro.futures.lineage", "LineageManager",
     ("resubmit", "ensure_available", "on_node_death")),
    ("futures.node_manager", "repro.futures.node_manager", "NodeManager",
     ("submit", "kill")),
    ("obs.events", "repro.obs.events", "EventBus", ("emit",)),
    ("obs.registry", "repro.obs.registry", "MetricRegistry",
     ("counter", "observe", "gauge_set")),
    ("metrics.core", "repro.metrics.core", "Counters", ("add",)),
    ("jobs", "repro.jobs.manager", "JobManager", ("submit", "drive")),
    ("jobs", "repro.jobs.admission", "AdmissionController",
     ("submit", "admit_ready", "release")),
    ("streaming", "repro.streaming.rounds", "RoundDriver",
     ("submit_round", "finish")),
    ("streaming", "repro.streaming.backpressure", "BackpressureController",
     ("admit", "track", "mark_visible", "drain")),
)

#: Every layer the ledger reports, in reporting order.
LAYERS: Tuple[str, ...] = (
    "simcore.engine",
    "simcore.resources",
    "cluster.fabric",
    "cluster.node",
    "futures.runtime",
    "futures.runtime.charge",
    "futures.scheduler",
    "futures.policies",
    "futures.object_store",
    "futures.directory",
    "futures.spilling",
    "futures.lineage",
    "futures.node_manager",
    "futures.driver",
    APP,
    "obs.events",
    "obs.registry",
    "metrics.core",
    "jobs",
    "streaming",
    "shuffle",
    "payload",
)


class _Node:
    """One stack path: the aggregate of every span with that ancestry."""

    __slots__ = ("name", "layer", "parent", "children", "calls", "self_s")

    def __init__(self, name: str, layer: Optional[str], parent: Optional["_Node"]) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.children: Dict[str, "_Node"] = {}
        self.calls = 0
        self.self_s = 0.0

    def path(self) -> Tuple[str, ...]:
        names = []
        node: Optional[_Node] = self
        while node is not None and node.parent is not None:
            names.append(node.name)
            node = node.parent
        return tuple(reversed(names))


class LayerTracer:
    """Span-stack tracer with per-path exclusive time.

    Usage::

        tracer = LayerTracer()
        tracer.install()        # wrap the layer entry points
        ...build the workload's inputs...
        tracer.start()          # open the measured window
        ...run the workload...
        tracer.stop()
        tracer.uninstall()      # restore every original attribute
        tracer.layer_totals()   # {layer: (calls, self_s)}
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        self._controllers: List[int] = []
        self._stacks: Dict[int, List[list]] = {}
        self.start()

    # -- the measured window ---------------------------------------------------
    def start(self) -> None:
        """Discard everything recorded so far and open the window now.

        Call it when no span is open, e.g. between building the inputs
        (which may already cross traced boundaries) and the run.
        """
        self.root = _Node("<root>", None, None)
        self._stacks.clear()
        self._running = threading.get_ident()
        self.untracked_s = 0.0
        #: ``(span_id, parent_id, name, layer, thread, start, duration)``
        self.spans: List[Tuple[int, int, str, str, int, float, float]] = []
        self._next_id = 0
        #: Boundaries hit on a thread the tracer did not know was running
        #: (a hand-off it does not trace); zero when attribution is exact.
        self.switch_misses = 0
        self.started_at = self._last = self.clock()

    def stop(self) -> float:
        """Close the window; returns its wall time."""
        now = self.clock()
        self._charge(now)
        return now - self.started_at

    # -- span boundaries -----------------------------------------------------
    def _charge(self, now: float) -> None:
        stack = self._stacks.get(self._running)
        if stack:
            stack[-1][0].self_s += now - self._last
        else:
            self.untracked_s += now - self._last
        self._last = now

    def enter(self, name: str, layer: str) -> None:
        now = self.clock()
        self._charge(now)
        ident = threading.get_ident()
        if ident != self._running:
            self.switch_misses += 1
            self._running = ident
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        if stack:
            parent = stack[-1]
            parent_node, parent_id = parent[0], parent[2]
        else:
            parent_node, parent_id = self.root, -1
        node = parent_node.children.get(name)
        if node is None:
            node = parent_node.children[name] = _Node(name, layer, parent_node)
        node.calls += 1
        span_id = self._next_id
        self._next_id = span_id + 1
        stack.append([node, now, span_id, parent_id])

    def exit(self) -> None:
        now = self.clock()
        self._charge(now)
        ident = threading.get_ident()
        if ident != self._running:
            self.switch_misses += 1
            self._running = ident
        node, start, span_id, parent_id = self._stacks[ident].pop()
        if span_id < MAX_SPANS:
            self.spans.append(
                (span_id, parent_id, node.name, node.layer, ident, start, now - start)
            )

    def _park(self) -> None:
        """The calling driver blocks: time now belongs to the controller."""
        self._charge(self.clock())
        if self._controllers:
            self._running = self._controllers[-1]

    def _unpark(self) -> None:
        """The calling driver thread resumes (or starts); the gap was the
        controller's."""
        self._charge(self.clock())
        self._running = threading.get_ident()

    # -- wrappers --------------------------------------------------------------
    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """``fn`` inside a span; generator functions stay generator
        functions and are timed on every resumption."""
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any) -> Iterator[Any]:
                enter(name, layer)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    exit_()
                while True:
                    enter(name, layer)
                    try:
                        item = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        exit_()
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def _driver_body(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A driver body as the ``app`` span of its thread."""
        tracer = self

        @functools.wraps(fn)
        def body(*args: Any, **kwargs: Any) -> Any:
            # The controller handed this thread the CPU.
            tracer._unpark()
            tracer.enter(APP, APP)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
                tracer._park()  # the thread hands control back for good

        return body

    # -- install / uninstall -------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _patch_function_everywhere(self, fn: Callable[..., Any], layer: str) -> None:
        """Callers bind module functions by name at import time
        (``from repro.shuffle import simple_shuffle``), so every module
        attribute holding ``fn`` is patched."""
        traced = self.wrap(fn, fn.__name__, layer)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patch(module, attr, traced)

    def install(self) -> None:
        """Wrap every layer entry point; refuses to install twice."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, class_name, methods in CLASS_TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                classes = [
                    value for value in vars(module).values()
                    if inspect.isclass(value) and value.__module__ == module_name
                ]
            else:
                classes = [getattr(module, class_name)]
            for cls in classes:
                names = methods or [
                    attr for attr, value in vars(cls).items()
                    if inspect.isfunction(value) and not attr.startswith("_")
                ]
                for attr in names:
                    traced = self.wrap(getattr(cls, attr), f"{cls.__name__}.{attr}", layer)
                    self._patch(cls, attr, traced)
        shuffle = importlib.import_module("repro.shuffle")
        for attr in sorted(vars(shuffle)):
            value = getattr(shuffle, attr)
            if attr.endswith("_shuffle") and inspect.isfunction(value):
                self._patch_function_everywhere(value, "shuffle")
        self._install_driver_and_payload()

    def _install_driver_and_payload(self) -> None:
        from repro.futures.driver import DriverHost
        from repro.futures.runtime import Runtime

        tracer = self
        run, spawn = DriverHost.run, DriverHost.spawn
        block_on, remote = DriverHost.block_on, Runtime.remote

        @functools.wraps(run)
        def traced_run(host: Any, fn: Any, *args: Any, **kwargs: Any) -> Any:
            tracer._controllers.append(threading.get_ident())
            tracer.enter("DriverHost.run", "futures.driver")
            try:
                return run(host, tracer._driver_body(fn), *args, **kwargs)
            finally:
                tracer.exit()
                tracer._controllers.pop()

        @functools.wraps(spawn)
        def traced_spawn(host: Any, fn: Any, *args: Any, **kwargs: Any) -> Any:
            return spawn(host, tracer._driver_body(fn), *args, **kwargs)

        @functools.wraps(block_on)
        def traced_block_on(host: Any, event: Any) -> Any:
            tracer._park()
            try:
                return block_on(host, event)
            finally:
                tracer._unpark()

        def payload(fn: Any) -> Any:
            name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", "task")
            return tracer.wrap(fn, name, "payload")

        @functools.wraps(remote)
        def traced_remote(rt: Any, fn: Any = None, **options: Any) -> Any:
            if fn is None:
                decorate = remote(rt, **options)
                return lambda inner: decorate(payload(inner))
            return remote(rt, payload(fn), **options)

        self._patch(DriverHost, "run", traced_run)
        self._patch(DriverHost, "spawn", traced_spawn)
        self._patch(DriverHost, "block_on", traced_block_on)
        self._patch(Runtime, "remote", traced_remote)

    def uninstall(self) -> None:
        """Restore every patched attribute to the object it held."""
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def patches(self) -> List[Tuple[Any, str, bool, Any]]:
        """``(owner, attribute, was_own_attribute, original)`` per patch."""
        return list(self._patches)

    # -- results -------------------------------------------------------------
    def _nodes(self) -> Iterator[_Node]:
        todo = list(self.root.children.values())
        while todo:
            node = todo.pop()
            yield node
            todo.extend(node.children.values())

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``{layer: (calls, self_s)}`` for every layer in :data:`LAYERS`
        (zero when never entered) and any other layer seen."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for node in self._nodes():
            entry = totals.setdefault(node.layer, [0, 0.0])
            entry[0] += node.calls
            entry[1] += node.self_s
        return {layer: (calls, self_s) for layer, (calls, self_s) in totals.items()}

    def paths(self) -> List[Dict[str, Any]]:
        """Per-stack-path aggregates, largest self time first."""
        rows = [
            {"path": ";".join(node.path()), "layer": node.layer,
             "calls": node.calls, "self_s": node.self_s}
            for node in self._nodes()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows

    def write_chrome_trace(self, path: str) -> None:
        """The first :data:`MAX_SPANS` spans as a Chrome ``traceEvents`` file."""
        origin = self.started_at
        threads = {ident: i for i, ident in enumerate(dict.fromkeys(s[4] for s in self.spans))}
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 0,
                "tid": threads[ident],
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": {"id": span_id, "parent": parent_id},
            }
            for span_id, parent_id, name, layer, ident, start, duration in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
