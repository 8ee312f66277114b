"""Property-based tests on the object store's accounting invariants."""

from hypothesis import example, given, settings, strategies as st

from repro.common.ids import NodeId, ObjectId
from repro.futures.object_store import ObjectStore
from repro.futures.policies import (
    CachedCopyView,
    InsertionOrderMemoryPolicy,
    NewestFirstMemoryPolicy,
)
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


def _expected_victims(store: ObjectStore, newest_first: bool, size: int) -> list:
    """Reference eviction for admitting ``size`` fresh bytes: cached,
    unpinned copies in the policy's order until the shortfall is freed."""
    needed = size - store.spare_bytes
    cached = _cached_copies(store)
    if newest_first:
        cached.reverse()
    victims, freed = [], 0
    for oid, entry_size in cached:
        if freed >= needed:
            break
        victims.append(oid)
        freed += entry_size
    return victims


class _NewestQueuedFirstPolicy(InsertionOrderMemoryPolicy):
    """Admits the allocation queue newest first, so the store pumps in
    policy order rather than strictly FIFO."""

    strict_fifo = False

    def next_grant(self, queue):
        return len(queue) - 1


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
    for policy_cls in (
        InsertionOrderMemoryPolicy,
        NewestFirstMemoryPolicy,
        _NewestQueuedFirstPolicy,
    ):
        env = Environment()
        victims = []
        store = ObjectStore(
            env, NodeId(0), CAPACITY, on_evict_cached=victims.append,
            policy=policy_cls(),
        )
        newest_first = policy_cls is NewestFirstMemoryPolicy
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
                expected = _expected_victims(store, newest_first, size)
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


class _StaleViewPolicy(InsertionOrderMemoryPolicy):
    """Puts views of entries that are not evictable ahead of the real
    candidates, and names every real candidate twice."""

    def __init__(self, stale):
        self.stale = stale

    def eviction_order(self, request, cached):
        return [*self.stale, *(view for view in cached for _ in (0, 1))]


def test_eviction_skips_victims_that_are_not_evictable():
    env = Environment()
    primary, pinned, old, new = (ObjectId(i) for i in range(4))
    policy = _StaleViewPolicy(
        [
            CachedCopyView(object_id=primary, size=300),
            CachedCopyView(object_id=pinned, size=200),
        ]
    )
    store = ObjectStore(env, NodeId(0), CAPACITY, policy=policy)
    store.try_allocate(primary, 300, primary=True)
    store.try_allocate(pinned, 200, primary=False, pin=True)
    store.try_allocate(old, 200, primary=False)
    store.try_allocate(new, 200, primary=False)
    # 100 bytes spare: admitting 400 needs 300 freed, i.e. both copies.
    assert store.try_allocate(ObjectId(9), 400, primary=True)
    assert store.contains(primary) and store.is_primary(primary)
    assert store.contains(pinned) and store.is_pinned(pinned)
    assert not store.contains(old) and not store.contains(new)
    assert store.used_bytes == sum(store.entry_size(oid) for oid in store.objects())
    assert store.pinned_bytes == 200
    assert store.cached_evictions == 2
    assert store._evictable == len(_cached_copies(store)) == 0


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
