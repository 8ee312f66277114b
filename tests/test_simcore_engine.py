"""Unit tests for the discrete-event engine."""

import pytest

from repro.simcore import Environment, Interrupt


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5.0)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5.0, 7.5]


def test_timeout_value_passed_to_process():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_process_return_value_via_completion_event():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return 42

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == [42]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(4.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(4.0, "open")]


def test_waiting_on_already_processed_event_resumes_immediately():
    env = Environment()
    gate = env.event()
    gate.succeed(7)
    env.run(until=1.0)
    assert gate.processed
    seen = []

    def proc():
        value = yield gate
        seen.append((env.now, value))

    env.process(proc())
    env.run()
    assert seen == [(1.0, 7)]


def test_event_fail_raises_in_process():
    env = Environment()
    gate = env.event()
    caught = []

    def proc():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc())
    gate.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_uncaught_exception_fails_process_event():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("dead")

    done = env.process(proc())
    env.run()
    assert done.triggered
    assert isinstance(done.exception, RuntimeError)


def test_double_trigger_rejected():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(RuntimeError):
        gate.succeed(2)


def test_all_of_collects_values_in_order():
    env = Environment()
    results = []

    def proc():
        t_slow = env.timeout(5.0, value="slow")
        t_fast = env.timeout(1.0, value="fast")
        values = yield env.all_of([t_slow, t_fast])
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(5.0, ["slow", "fast"])]


def test_all_of_empty_succeeds_immediately():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of([])
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(0.0, [])]


def test_any_of_returns_first_value():
    env = Environment()
    results = []

    def proc():
        value = yield env.any_of(
            [env.timeout(5.0, value="slow"), env.timeout(1.0, value="fast")]
        )
        results.append((env.now, value))

    env.process(proc())
    env.run()
    assert results == [(1.0, "fast")]


def test_all_of_fails_fast_on_child_failure():
    env = Environment()
    gate = env.event()
    caught = []

    def proc():
        try:
            yield env.all_of([gate, env.timeout(100.0)])
        except KeyError as exc:
            caught.append((env.now, type(exc).__name__))

    env.process(proc())
    env.call_later(2.0, lambda: gate.fail(KeyError("lost")))
    env.run()
    assert caught == [(2.0, "KeyError")]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    proc = env.process(victim())
    env.call_later(3.0, lambda: proc.interrupt("node-death"))
    env.run()
    assert log == [(3.0, "node-death")]


def test_interrupted_wait_ignores_stale_wakeup():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(5.0)
            log.append("timeout-fired")
        except Interrupt:
            yield env.timeout(10.0)
            log.append(("resumed", env.now))

    proc = env.process(victim())
    env.call_later(1.0, lambda: proc.interrupt())
    env.run()
    # The original 5s timeout must not wake the process a second time.
    assert log == [("resumed", 11.0)]


def test_interrupt_after_completion_is_noop():
    env = Environment()

    def quick():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(quick())
    env.run()
    proc.interrupt()
    env.run()
    assert proc.value == "done"


def test_run_until_limit_advances_time_exactly():
    env = Environment()

    def noop():
        yield env.timeout(1.0)

    env.process(noop())
    env.run(until=9.0)
    assert env.now == 9.0


def test_run_until_event_detects_deadlock():
    env = Environment()
    gate = env.event()  # never triggered
    with pytest.raises(RuntimeError, match="deadlock"):
        env.run_until_event(gate)


def test_call_later_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-1.0, lambda: None)


def test_same_time_events_run_in_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    proc = env.process(bad())
    env.run()
    assert isinstance(proc.exception, TypeError)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


# -- same-time ordering: every heap entry runs in scheduling order ----------


def _same_time_schedulers(env, log, victim):
    """One zero-delay entry of each kind, as ``(label, schedule)`` pairs;
    each ``schedule()`` arms an entry that appends ``label`` to ``log``."""

    def arm_call_later(label):
        env.call_later(0.0, lambda: log.append(label))

    def arm_timeout(label):
        env.timeout(0.0).add_callback(lambda _e: log.append(label))

    def arm_succeed(label):
        event = env.event()
        event.add_callback(lambda _e: log.append(label))
        event.succeed()

    def arm_process_start(label):
        def body():
            log.append(label)
            yield env.timeout(0.0)

        env.process(body())

    def arm_interrupt(_label):
        victim.interrupt()

    return [
        ("call_later", arm_call_later),
        ("timeout", arm_timeout),
        ("succeed", arm_succeed),
        ("process_start", arm_process_start),
        ("interrupt", arm_interrupt),
    ]


@pytest.mark.parametrize("reverse", [False, True])
def test_same_time_entries_run_in_scheduling_order(reverse):
    """Bare callbacks (``call_later``, process starts, interrupt
    deliveries) and triggered events (``Timeout(0)``, ``succeed()``) share
    one heap, and at one simulated time they run in the order they were
    scheduled, whatever their kind."""
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            log.append("interrupt")

    victim = env.process(sleeper())
    env.run(until=1.0)  # the victim is now parked on its timeout
    schedulers = _same_time_schedulers(env, log, victim)
    if reverse:
        schedulers.reverse()
    for label, arm in schedulers:
        arm(label)
    assert log == []  # nothing runs synchronously
    env.run(until=1.0)
    assert log == [label for label, _arm in schedulers]


def test_add_callback_on_processed_event_runs_at_its_turn():
    """A callback attached to an already-processed event is delivered at
    the current time as a new heap entry: after entries scheduled before
    it, before entries scheduled after it, never synchronously."""
    env = Environment()
    done = env.event()
    done.succeed("value")
    env.run()
    assert done.processed
    log = []
    env.call_later(0.0, lambda: log.append("before"))
    done.add_callback(lambda e: log.append(("late", e.value, env.now)))
    env.call_later(0.0, lambda: log.append("after"))
    assert log == []
    env.run()
    assert log == ["before", ("late", "value", env.now), "after"]


def test_yielding_processed_event_resumes_after_earlier_entries():
    """A process that yields an already-processed event resumes through
    the same late-callback path, in scheduling order."""
    env = Environment()
    done = env.event()
    done.succeed(7)
    env.run()
    log = []

    def waiter():
        env.call_later(0.0, lambda: log.append("scheduled first"))
        value = yield done
        log.append(("resumed", value))

    env.process(waiter())
    env.run()
    assert log == ["scheduled first", ("resumed", 7)]
