"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.simcore import BandwidthResource, Environment, Interrupt


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


# -- two structures, one order: the heap and the same-time FIFO -------------


def test_heap_entry_due_now_runs_before_entries_scheduled_now():
    """Entries scheduled at time T for T (zero delay) queue behind every
    heap entry due at T: those were scheduled earlier, so they come first
    in scheduling order."""
    env = Environment()
    log = []
    made = {}

    def first():
        log.append("first")
        made["zero"] = zero = lambda: log.append("zero-delay")
        env.call_later(0.0, zero)
        env.event().add_callback(lambda _e: log.append("unreached"))
        made["done"] = done = env.event()
        done.add_callback(lambda _e: log.append("succeed"))
        done.succeed()

    def second():
        log.append("second")

    env.call_later(1.0, first)
    env.call_later(1.0, second)
    assert env.next_entry() is first
    env.step()
    assert (env.now, log) == (1.0, ["first"])
    assert env.peek() == 1.0
    # next_entry() names the entry each step() then runs, including the
    # mixed case of a heap entry due now beside FIFO entries.
    for entry, logged in [
        (second, "second"),
        (made["zero"], "zero-delay"),
        (made["done"]._process_callbacks, "succeed"),
    ]:
        assert env.next_entry() == entry
        env.step()
        assert log[-1] == logged
    assert env.next_entry() is None
    env.run()
    assert log == ["first", "second", "zero-delay", "succeed"]
    assert env.now == 1.0


def test_next_entry_names_the_entry_step_runs():
    """Over a seeded mix of heap and FIFO entries scheduled from inside
    entries, every step() runs exactly the entry next_entry() named."""
    rng = random.Random(0)
    env = Environment()
    ran = []

    def entry(depth):
        def fn():
            ran.append(fn)
            if depth < 4:
                for _ in range(rng.randint(0, 3)):
                    delay = rng.choice([0.0, 0.0, 1e-17, 0.5, 1.0])
                    env.call_later(delay, entry(depth + 1))
        return fn

    for _ in range(5):
        env.call_later(rng.choice([0.0, 1.0]), entry(0))
    steps = 0
    while env.next_entry() is not None:
        expected = env.next_entry()
        env.step()
        assert ran[-1] is expected
        steps += 1
    assert steps == len(ran) > 20


def test_delay_absorbed_by_rounding_goes_to_the_fifo():
    """``now + delay == now`` is due now whatever ``delay`` is: it runs
    in scheduling order with the zero-delay entries around it, before a
    heap entry due at the next representable time."""
    env = Environment()
    env.run(until=1.0)
    tiny = 1e-17
    assert env.now + tiny == env.now
    log = []
    env.call_later(2.3e-16, lambda: log.append(("later", env.now)))
    env.call_later(0.0, lambda: log.append(("zero", env.now)))
    env.call_later(tiny, lambda: log.append(("tiny", env.now)))
    env.timeout(tiny).add_callback(lambda _e: log.append(("timeout", env.now)))
    assert len(env._queue) == 1 and len(env._due) == 3
    env.run()
    assert log == [
        ("zero", 1.0),
        ("tiny", 1.0),
        ("timeout", 1.0),
        ("later", 1.0 + 2.3e-16),
    ]


def test_zero_byte_zero_latency_transfers_complete_now_in_order():
    env = Environment()
    link = BandwidthResource(env, 1e6, per_op_latency=0.0)
    env.run(until=2.0)
    log = []
    first, second = link.transfer(0), link.transfer(0)
    first.add_callback(lambda _e: log.append(("first", env.now)))
    second.add_callback(lambda _e: log.append(("second", env.now)))
    assert not first.triggered  # completion is an engine entry
    assert not env._queue and env.peek() == 2.0
    env.run()
    assert log == [("first", 2.0), ("second", 2.0)]
    assert (link.ops_served, link.busy_seconds, link.queue_length) == (2, 0.0, 0)


def test_run_until_drains_fifo_only_entries():
    env = Environment()
    log = []
    env.call_later(0.0, lambda: log.append("a"))
    env.event().succeed().add_callback(lambda _e: log.append("b"))
    env.run(until=0.0)
    assert log == ["a", "b"] and env.now == 0.0
    env.call_later(0.0, lambda: log.append("c"))
    env.run(until=5.0)
    assert log == ["a", "b", "c"] and env.now == 5.0
    assert env.next_entry() is None and env.peek() == float("inf")


def test_run_until_event_with_fifo_only_entries():
    env = Environment()
    env.run(until=3.0)
    gate = env.event()
    gate.succeed("value")
    assert env.run_until_event(gate, limit=3.0) == "value"
    assert env.now == 3.0


def test_run_until_event_reports_deadlock_once_both_structures_drain():
    """A process whose start and first wait run from the FIFO, then
    parks on an event nothing triggers: the deadlock is reported at the
    time the last entry ran."""
    env = Environment()
    gate = env.event()

    def waiter():
        yield env.timeout(0.0)
        yield env.timeout(2.0)
        yield gate

    proc = env.process(waiter())
    with pytest.raises(RuntimeError, match="deadlock: event queue drained at t=2.0"):
        env.run_until_event(proc)
    assert env.next_entry() is None


# -- AllOf / AnyOf over children processed before construction --------------


def test_all_of_waits_for_unprocessed_children_beside_processed_ones():
    """A processed child counts at construction; a triggered but not yet
    processed one (a timeout) still has to be processed.  Values come in
    construction order."""
    env = Environment()
    done = env.event().succeed("done")
    env.run()
    results = []

    def proc():
        values = yield env.all_of([env.timeout(2.0, value="timeout"), done])
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(2.0, ["timeout", "done"])]


def test_all_of_over_processed_children_succeeds_now():
    env = Environment()
    first, second = env.event().succeed(1), env.event().succeed(2)
    env.run(until=4.0)
    for children, expected in (([first, second], [1, 2]), ([], [])):
        joined = env.all_of(children)
        assert joined.triggered and joined.value == expected
        env.run()
        assert joined.processed and env.now == 4.0


def test_all_of_fails_fast_on_a_processed_failed_child():
    env = Environment()
    lost = env.event().fail(KeyError("lost"))
    env.run()
    caught = []

    def proc():
        try:
            yield env.all_of([env.timeout(100.0), lost])
        except KeyError as exc:
            caught.append((env.now, type(exc).__name__))

    env.process(proc())
    env.run()
    assert caught == [(0.0, "KeyError")]


def test_any_of_fails_only_once_every_child_failed():
    env = Environment()
    lost = env.event().fail(KeyError("first"))
    env.run()
    late = env.event()
    env.call_later(3.0, lambda: late.fail(ValueError("second")))
    either = env.any_of([lost, late])
    assert not either.triggered
    env.run()
    assert isinstance(either.exception, KeyError) and env.now == 3.0
