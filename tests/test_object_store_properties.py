"""Property-based tests on the object store's accounting invariants."""

from hypothesis import example, given, settings, strategies as st

from repro.common.ids import NodeId, ObjectId
from repro.futures.object_store import ObjectStore
from repro.simcore import Environment

CAPACITY = 1000


def _cached_copies(store: ObjectStore) -> list:
    """Brute force: the entries eviction may drop (cached, unpinned) as
    ``(object_id, size)``, oldest first."""
    return [
        (oid, store.entry_size(oid))
        for oid in store.objects()
        if not store.is_primary(oid) and not store.is_pinned(oid)
    ]


def _check_invariants(store: ObjectStore) -> None:
    sizes = [store.entry_size(oid) for oid in store.objects()]
    assert store.used_bytes == sum(sizes)
    assert 0 <= store.used_bytes <= store.capacity
    assert 0 <= store.pinned_bytes <= store.used_bytes
    assert store._evictable == len(_cached_copies(store))


def _expected_victims(store: ObjectStore, size: int) -> list:
    """Reference eviction for admitting ``size`` fresh bytes: cached,
    unpinned copies oldest first until the shortfall is freed."""
    needed = size - store.spare_bytes
    victims, freed = [], 0
    for oid, entry_size in _cached_copies(store):
        if freed >= needed:
            break
        victims.append(oid)
        freed += entry_size
    return victims


# Each step: (op_code, object_index, size, primary)
step_strategy = st.tuples(
    st.sampled_from(
        ["alloc", "try_alloc", "evict_alloc", "free", "pin", "unpin", "demote", "clear"]
    ),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=400),
    st.booleans(),
)


@settings(max_examples=120, deadline=None)
@given(steps=st.lists(step_strategy, min_size=1, max_size=60))
@example(  # a cached copy through every pin state, then upgraded and freed
    steps=[
        ("try_alloc", 0, 100, False),
        ("pin", 0, 1, False),
        ("unpin", 0, 1, False),
        ("alloc", 0, 100, True),
        ("demote", 0, 1, False),
        ("free", 0, 1, False),
    ]
)
@example(  # one object queued twice, both granted when memory frees
    steps=[
        ("alloc", 0, 400, True),
        ("alloc", 1, 400, True),
        ("alloc", 2, 300, True),
        ("alloc", 2, 300, False),
        ("free", 0, 1, False),
    ]
)
def test_store_accounting_invariants_hold_under_any_sequence(steps):
    env = Environment()
    victims = []
    store = ObjectStore(env, NodeId(0), CAPACITY, on_evict_cached=victims.append)
    for op, index, size, primary in steps:
        oid = ObjectId(index)
        resident = store.objects()
        # Aim pin, unpin, demote and free at entries whose state they change.
        targets = {
            "pin": resident,
            "unpin": [o for o in resident if store.is_pinned(o)],
            "demote": [o for o in resident if store.is_primary(o)],
            "free": resident,
        }.get(op)
        if targets:
            oid = targets[index % len(targets)]
        if op == "evict_alloc":
            # Just past the spare bytes, so any cached copy must go.
            oid = ObjectId(100 + index)
            size = min(CAPACITY, store.spare_bytes + size)
        expected = None
        if op in ("alloc", "try_alloc", "evict_alloc") and not store.contains(oid):
            expected = _expected_victims(store, size)
        victims.clear()
        if op == "alloc":
            store.allocate(oid, size, primary=primary)
        elif op in ("try_alloc", "evict_alloc"):
            store.try_allocate(oid, size, primary=primary)
        elif op == "free":
            store.free(oid)
        elif op == "pin":
            if store.contains(oid):
                store.pin(oid)
        elif op == "unpin":
            store.unpin(oid)
        elif op == "demote":
            store.demote_to_cached(oid)
        elif op == "clear":
            store.clear()
        env.run()
        if expected is not None:
            assert victims == expected
        _check_invariants(store)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=30)
)
def test_eviction_of_cached_copies_never_drops_primaries(sizes):
    env = Environment()
    store = ObjectStore(env, NodeId(0), CAPACITY)
    primaries = []
    # Fill half the store with primaries, then churn cached copies through.
    budget = CAPACITY // 2
    used = 0
    for i, size in enumerate(sizes):
        if used + size > budget:
            break
        store.try_allocate(ObjectId(1000 + i), size, primary=True)
        primaries.append(ObjectId(1000 + i))
        used += size
    for i, size in enumerate(sizes):
        store.try_allocate(ObjectId(i), min(size, CAPACITY // 2), primary=False)
    env.run()
    for oid in primaries:
        assert store.contains(oid)
        assert store.is_primary(oid)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=25),
    pin_mask=st.lists(st.booleans(), min_size=25, max_size=25),
)
def test_spill_candidates_are_unpinned_primaries_within_budget(sizes, pin_mask):
    env = Environment()
    store = ObjectStore(env, NodeId(0), 10_000)
    for i, size in enumerate(sizes):
        store.try_allocate(ObjectId(i), size, primary=(i % 2 == 0), pin=pin_mask[i])
    for target in (1, 100, 10_000):
        candidates = store.spill_candidates(target)
        for oid, size in candidates:
            index = oid.index
            assert index % 2 == 0  # primary
            assert not pin_mask[index]  # unpinned
            assert size == sizes[index]
        # Budget respected modulo one overshooting entry.
        total = sum(size for _, size in candidates)
        if candidates:
            assert total - candidates[-1][1] < target


# -- whole-runtime invariants under seeded chaos ---------------------------

_chaos_case = st.tuples(
    st.sampled_from(["simple", "push", "streaming"]),
    st.sampled_from(
        ["node_crash", "slow_node", "object_loss", "straggler", "link_down"]
    ),
    st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=12, deadline=None)
@given(case=_chaos_case)
def test_invariants_hold_after_any_seeded_chaos_run(case):
    """Property: whatever (variant, fault, seed) chaos throws at a run,
    the quiesced runtime passes the full invariant suite and still
    produces the oracle output."""
    from repro.chaos import FaultKind, expected_output, matrix_plan, run_chaos_shuffle

    variant, kind_value, seed = case
    plan = matrix_plan(FaultKind(kind_value), seed=seed)
    report = run_chaos_shuffle(variant, plan, seed=seed)
    assert report.violations == []
    assert report.output == expected_output(seed)
