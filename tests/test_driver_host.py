"""The driver/simulation handoff: misuse, deadlocks, sequential runs,
and the hand-off rule (earliest-spawned runnable driver first)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.futures.driver import DriverError, DriverHost
from repro.simcore import Environment

from tests.conftest import make_runtime


class TestDriverHost:
    def test_result_and_time_flow(self):
        env = Environment()
        host = DriverHost(env)

        def driver():
            host.block_on(env.timeout(5.0, value="woke"))
            return env.now

        assert host.run(driver) == 5.0

    def test_block_on_returns_event_value(self):
        env = Environment()
        host = DriverHost(env)

        def driver():
            return host.block_on(env.timeout(1.0, value=123))

        assert host.run(driver) == 123

    def test_failed_event_raises_in_driver(self):
        env = Environment()
        host = DriverHost(env)
        gate = env.event()
        env.call_later(1.0, lambda: gate.fail(ValueError("nope")))

        def driver():
            with pytest.raises(ValueError, match="nope"):
                host.block_on(gate)
            return "survived"

        assert host.run(driver) == "survived"

    def test_deadlock_reported(self):
        env = Environment()
        host = DriverHost(env)
        never = env.event()

        def driver():
            host.block_on(never)

        with pytest.raises(DriverError, match="deadlock"):
            host.run(driver)

    def test_block_on_outside_driver_rejected(self):
        env = Environment()
        host = DriverHost(env)
        with pytest.raises(DriverError):
            host.block_on(env.timeout(1.0))

    def test_sequential_runs_reuse_host(self):
        rt = make_runtime(num_nodes=1)
        inc = rt.remote(lambda x: x + 1)
        first = rt.run(lambda: rt.get(inc.remote(1)))
        second = rt.run(lambda: rt.get(inc.remote(first)))
        assert (first, second) == (2, 3)
        # simulated time accumulates across runs
        assert rt.now > 0

    def test_driver_exception_cleans_up_for_next_run(self):
        rt = make_runtime(num_nodes=1)

        def bad():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            rt.run(bad)
        assert rt.run(lambda: "fine") == "fine"

    def test_aborted_run_leaves_no_stale_wakeup(self):
        """A subdriver still parked when its primary raised keeps its
        callback on a pending event; when that event fires during the next
        run, the stale driver must stay parked."""
        env = Environment()
        host = DriverHost(env)
        resumed = []

        def parked():
            host.block_on(env.timeout(5.0))
            resumed.append(env.now)

        def failing():
            host.spawn(parked)
            host.block_on(env.timeout(1.0))
            raise KeyError("boom")

        with pytest.raises(KeyError):
            host.run(failing)

        def later():
            host.block_on(env.timeout(10.0))
            return env.now

        assert host.run(later) == 11.0
        assert resumed == []


def _earliest_runnable(spawned):
    """The reference hand-off rule: scan every driver ever spawned, in
    spawn order, for the first one that is runnable."""
    for channel in spawned:
        if channel.outcome is None and (
            channel.wake is None or channel.wake.processed
        ):
            return channel
    return None


_FILLER = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    st.tuples(st.just("wait"), st.integers(0, 2)),
)


@st.composite
def _programs(draw):
    """A random spawn tree of up to 30 subdrivers (key -1 is the primary);
    each body sleeps, waits on shared events (often already processed by
    the time a driver blocks on them), spawns its children and joins them,
    some early."""
    count = draw(st.integers(0, 30))
    parents = [draw(st.integers(-1, i - 1)) for i in range(count)]
    programs = {}
    for driver in range(-1, count):
        ops = draw(st.lists(_FILLER, max_size=4))
        for child in (c for c in range(count) if parents[c] == driver):
            at = draw(st.integers(0, len(ops)))
            ops.insert(at, ("spawn", child))
            if draw(st.booleans()):
                ops.insert(draw(st.integers(at + 1, len(ops))), ("join", child))
        programs[driver] = ops
    return programs


@settings(max_examples=60, deadline=None)
@given(programs=_programs())
def test_hand_offs_follow_earliest_spawned_runnable(programs):
    env = Environment()
    host = DriverHost(env)
    shared = [env.timeout(delay) for delay in (0.5, 1.5, 3.0)]
    spawned = []
    handed, expected, missed = [], [], []

    def body(driver):
        handles = {}
        for op, arg in programs[driver]:
            if op == "spawn":
                handles[arg] = host.spawn(body, arg, name=f"d{arg}")
                spawned.append(handles[arg]._channel)
            elif op == "join":
                host.join(handles.pop(arg))
            elif op == "sleep":
                host.block_on(env.timeout(arg))
            else:
                host.block_on(shared[arg])
        for handle in handles.values():
            host.join(handle)
        return driver

    hand_off = host._hand_off

    def recording_hand_off(channel):
        if not spawned:
            spawned.append(channel)  # the primary
        reference = _earliest_runnable(spawned)
        handed.append(channel.name)
        expected.append(reference.name if reference is not None else None)
        hand_off(channel)

    def recording_step():
        # The controller steps the engine only when no driver can run.
        reference = _earliest_runnable(spawned)
        if reference is not None:
            missed.append((env.now, reference.name))
        Environment.step(env)

    host._hand_off = recording_hand_off
    env.step = recording_step
    assert host.run(body, -1) == -1
    assert handed == expected
    assert missed == []
    assert len(handed) >= len(programs)
