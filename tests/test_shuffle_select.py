"""Direct unit tests for runtime shuffle selection crossover boundaries.

The paper's rule, :func:`repro.plan.empirical_variant`: simple shuffle
iff the working set fits in ``MEMORY_HEADROOM`` of the alive nodes'
aggregate store memory AND partitions are below
``PARTITION_CROSSOVER``; push otherwise.  These tests pin the exact
boundary behaviour against a live runtime's profile, and that an
empirically lowered plan carries the capacity figure it decided on.
"""

from conftest import make_runtime

from repro.plan import (
    MEMORY_HEADROOM,
    PARTITION_CROSSOVER,
    ClusterProfile,
    JobShape,
    ShuffleExpr,
    empirical_variant,
)


def store_bytes(rt):
    """Aggregate object-store capacity of the runtime's alive nodes."""
    return ClusterProfile.from_runtime(rt).store_bytes


def choose(rt, total, partitions):
    return empirical_variant(store_bytes(rt), total, partitions)


def small_bytes(rt):
    """A working set comfortably inside the in-memory threshold."""
    return int(MEMORY_HEADROOM * store_bytes(rt)) // 2


def lower(rt, total, partitions):
    shape = JobShape(
        total_bytes=total, num_maps=partitions, num_reduces=partitions
    )
    profile = ClusterProfile.from_runtime(rt)
    return ShuffleExpr(shape=shape).lower(profile, rule="empirical")


class TestPartitionCrossover:
    def test_below_crossover_in_memory_is_simple(self):
        rt = make_runtime()
        assert choose(rt, small_bytes(rt), PARTITION_CROSSOVER - 1) == "simple"

    def test_at_crossover_is_push(self):
        rt = make_runtime()
        assert choose(rt, small_bytes(rt), PARTITION_CROSSOVER) == "push"

    def test_far_below_crossover_is_simple(self):
        rt = make_runtime()
        assert choose(rt, small_bytes(rt), 1) == "simple"


class TestMemoryCrossover:
    def test_exactly_at_headroom_counts_as_in_memory(self):
        rt = make_runtime()
        boundary = int(MEMORY_HEADROOM * store_bytes(rt))
        assert choose(rt, boundary, 10) == "simple"

    def test_one_byte_over_headroom_is_push(self):
        rt = make_runtime()
        boundary = int(MEMORY_HEADROOM * store_bytes(rt))
        assert choose(rt, boundary + 1, 10) == "push"

    def test_big_data_and_many_partitions_is_push(self):
        rt = make_runtime()
        total = 10 * store_bytes(rt)
        assert choose(rt, total, 1000) == "push"


class TestAggregateStoreBytes:
    def test_counts_only_alive_nodes(self):
        rt = make_runtime(num_nodes=2)
        full = store_bytes(rt)
        nodes = list(rt.cluster)
        nodes[0].fail()
        assert store_bytes(rt) == full // 2

    def test_node_death_flips_the_choice(self):
        rt = make_runtime(num_nodes=2)
        # Sized to fit with both stores but not with one.
        total = int(MEMORY_HEADROOM * store_bytes(rt)) * 3 // 4
        assert choose(rt, total, 10) == "simple"
        list(rt.cluster)[0].fail()
        assert choose(rt, total, 10) == "push"


class TestDescribeChoice:
    def test_reports_the_figure_that_drove_the_decision(self):
        rt = make_runtime()
        plan = lower(rt, small_bytes(rt), 10)
        assert plan.variant == "simple"
        assert plan.decided_by == "empirical"
        assert plan.profile.store_bytes == store_bytes(rt)
        assert plan.to_dict()["shape"]["num_reduces"] == 10

    def test_description_consistent_after_node_death(self):
        rt = make_runtime(num_nodes=2)
        list(rt.cluster)[0].fail()
        total = int(MEMORY_HEADROOM * store_bytes(rt)) // 2
        plan = lower(rt, total, 10)
        # The plan's capacity is the alive-node figure the rule used,
        # and re-deciding from that figure gives the same variant.
        assert plan.profile.store_bytes == store_bytes(rt)
        assert choose(rt, total, 10) == plan.variant
