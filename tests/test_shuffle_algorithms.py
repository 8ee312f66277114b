"""Every shuffle variant must produce a correct sort, real and virtual."""

import pytest

from repro.blocks import total_records
from repro.common.units import MB
from repro.futures import RuntimeConfig
from repro import shuffle
from repro.plan import ClusterProfile, JobShape, ShuffleExpr, empirical_variant
from repro.shuffle import ShuffleOps, streaming_shuffle, submit
from repro.sort import VARIANTS, SortJobConfig, run_sort, theoretical_sort_seconds

from tests.conftest import make_node_spec, make_runtime


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_sorts_real_data(variant, monkeypatch):
    """The concatenated outputs equal a reference sort of every input key."""
    import numpy as np

    from repro.blocks import RealBlock
    from repro.common.rng import derive_seed
    from repro.sort import job

    outputs = []
    validate = job.validate_sorted_output

    def capture(blocks, *args):
        outputs.extend(blocks)
        return validate(blocks, *args)

    monkeypatch.setattr(job, "validate_sorted_output", capture)
    rt = make_runtime(num_nodes=3)
    config = SortJobConfig(
        variant=variant,
        num_partitions=8,
        partition_bytes=2 * MB,
        virtual=False,
        validate=True,
    )
    result = run_sort(rt, config)
    assert result.validated
    assert result.sort_seconds > 0
    records = config.partition_bytes // config.record_bytes
    inputs = [
        RealBlock.generate(
            records,
            seed=derive_seed(config.seed, "datagen", i),
            record_bytes=config.record_bytes,
        ).keys
        for i in range(config.num_partitions)
    ]
    assert len(outputs) == config.reducers
    np.testing.assert_array_equal(
        np.concatenate([block.keys for block in outputs]),
        np.sort(np.concatenate(inputs)),
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_sorts_virtual_data(variant):
    rt = make_runtime(num_nodes=4, store_mib=512)
    config = SortJobConfig(
        variant=variant,
        num_partitions=16,
        partition_bytes=100 * MB,  # 1.6 GB through 4x512 MiB stores: spills
        virtual=True,
        validate=True,
    )
    result = run_sort(rt, config)
    assert result.validated
    assert result.stats["spill_bytes_written"] > 0


def test_push_star_writes_less_than_push():
    """ES-push* must spill strictly fewer bytes (reduced write
    amplification, §5.1.4) at equal correctness."""

    def run(variant):
        rt = make_runtime(num_nodes=4, store_mib=256)
        config = SortJobConfig(
            variant=variant,
            num_partitions=16,
            partition_bytes=100 * MB,
            virtual=True,
        )
        result = run_sort(rt, config)
        assert result.validated
        return result.stats["disk_bytes_written"]

    assert run("push*") < run("push")


def test_sort_with_more_reducers_than_partitions():
    rt = make_runtime(num_nodes=2)
    config = SortJobConfig(
        variant="push*",
        num_partitions=4,
        num_reduces=10,
        partition_bytes=1 * MB,
        virtual=False,
    )
    assert run_sort(rt, config).validated


def test_sort_single_reducer_edge_case():
    rt = make_runtime(num_nodes=2)
    config = SortJobConfig(
        variant="simple",
        num_partitions=3,
        num_reduces=1,
        partition_bytes=1 * MB,
        virtual=False,
    )
    assert run_sort(rt, config).validated


def test_sort_more_partitions_than_cluster_slots():
    rt = make_runtime(num_nodes=2, cores=2)
    config = SortJobConfig(
        variant="push",
        num_partitions=20,
        partition_bytes=1 * MB,
        virtual=False,
    )
    assert run_sort(rt, config).validated


def test_bad_variant_rejected():
    with pytest.raises(ValueError):
        SortJobConfig(variant="turbo")


@pytest.mark.parametrize("num_reduces", [0, -2])
def test_reducer_count_below_one_rejected(num_reduces):
    """0 used to run silently with ``num_partitions`` reducers and -2 to
    fail inside the driver; both are refused by the config."""
    with pytest.raises(ValueError, match="num_reduces"):
        SortJobConfig(num_reduces=num_reduces)
    assert SortJobConfig(num_partitions=4, num_reduces=1).reducers == 1
    assert SortJobConfig(num_partitions=4).reducers == 4


@pytest.mark.parametrize("variant, library", [
    ("simple", "simple_shuffle"),
    ("riffle", "riffle_shuffle"),
    ("magnet", "magnet_shuffle"),
    ("push", "push_based_shuffle"),
    ("streaming", "streaming_shuffle"),
])
def test_submit_calls_its_library_through_the_package(
    monkeypatch, variant, library
):
    """Each variant name reaches its own library, read from the package
    namespace at call time: a wrapper installed there sees the call."""
    calls = []
    monkeypatch.setattr(
        shuffle, library, lambda *args, **kwargs: calls.append(library) or []
    )
    ops = ShuffleOps(
        list, list, merge=list, merge_columns=list, stream_reduce=list
    )
    assert submit(None, variant, [[1], [2]], ops, 2) == []
    assert calls == [library]


class TestSubmitRejections:
    """``repro.shuffle.submit`` refuses a bad request before any task."""

    def _submit(self, variant, ops):
        rt = make_runtime(num_nodes=2)

        def driver():
            with pytest.raises(ValueError) as raised:
                submit(rt, variant, [[1, 2], [3, 4]], ops, 2)
            return str(raised.value)

        message = rt.run(driver)
        assert rt.bus.events_of("task.submit") == []
        return message

    def test_unknown_variant(self):
        ops = ShuffleOps(lambda part: [part, part], lambda *blocks: blocks)
        assert "'turbo'" in self._submit("turbo", ops)

    def test_ops_missing_the_variants_operator(self):
        # Frame-style ops: a per-reducer merge, no column merge.
        ops = ShuffleOps(
            lambda part: [part, part], lambda *blocks: blocks,
            merge=lambda *blocks: blocks,
        )
        assert "merge_columns" in self._submit("riffle", ops)


@pytest.mark.parametrize("virtual", [True, False])
def test_records_narrower_than_keys_rejected_up_front(virtual):
    """Both block kinds need key-sized records: the config refuses a
    narrower one before any runtime starts, not as a failed datagen
    task inside the run."""
    with pytest.raises(ValueError, match="at least key-sized"):
        SortJobConfig(virtual=virtual, record_bytes=4)
    assert SortJobConfig(virtual=virtual, record_bytes=8).record_bytes == 8


def test_theoretical_baseline_formula():
    spec = make_node_spec(disk_mb_s=100.0)
    from repro.cluster import ClusterSpec

    cluster = ClusterSpec.homogeneous(spec, 10)
    # 4 * 1 GB / (10 * 100 MB/s) = 4 s
    assert theoretical_sort_seconds(cluster, 10**9) == pytest.approx(4.0)


class TestStreamingShuffle:
    def test_stateful_rounds_accumulate(self):
        rt = make_runtime(num_nodes=2)
        seen_rounds = []

        def driver():
            def map_fn(values):
                # two reducers: evens and odds
                return [
                    [v for v in values if v % 2 == 0],
                    [v for v in values if v % 2 == 1],
                ]

            def reduce_fn(state, *lists):
                state = state or 0
                return state + sum(sum(lst) for lst in lists)

            rounds = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
            states = streaming_shuffle(
                rt,
                rounds,
                map_fn,
                reduce_fn,
                num_reduces=2,
                on_round=lambda rnd, refs: seen_rounds.append(rnd),
            )
            return rt.get(states)

        even_sum, odd_sum = rt.run(driver)
        assert even_sum == 2 + 4 + 6 + 8
        assert odd_sum == 1 + 3 + 5 + 7
        assert seen_rounds == [0, 1]

    def test_rejects_empty_rounds(self):
        rt = make_runtime(num_nodes=1)

        def driver():
            with pytest.raises(ValueError):
                streaming_shuffle(rt, [], lambda x: [x], lambda s, x: x, 1)
            return True

        assert rt.run(driver)


def _choose(rt, total_data_bytes, num_partitions):
    store = ClusterProfile.from_runtime(rt).store_bytes
    return empirical_variant(store, total_data_bytes, num_partitions)


class TestShuffleSelection:
    def test_small_in_memory_prefers_simple(self):
        rt = make_runtime(num_nodes=4, store_mib=2048)
        assert _choose(rt, 100 * MB, 50) == "simple"

    def test_large_data_prefers_push(self):
        rt = make_runtime(num_nodes=4, store_mib=2048)
        assert _choose(rt, 100_000 * MB, 50) == "push"

    def test_many_partitions_prefer_push_even_in_memory(self):
        rt = make_runtime(num_nodes=4, store_mib=2048)
        assert _choose(rt, 10 * MB, 500) == "push"

    def test_describe_choice_reports_inputs(self):
        rt = make_runtime(num_nodes=2)
        shape = JobShape(total_bytes=10 * MB, num_maps=10, num_reduces=10)
        plan = ShuffleExpr(shape=shape).lower(ClusterProfile.from_runtime(rt))
        info = plan.to_dict()
        assert info["variant"] == "simple"
        assert info["shape"]["num_reduces"] == 10


class TestSortWithFailure:
    def test_push_star_survives_injected_failure(self):
        from repro.cluster import FailurePlan

        config_rt = RuntimeConfig(failure_detection_s=3.0)
        rt = make_runtime(num_nodes=4, store_mib=512, config=config_rt)
        config = SortJobConfig(
            variant="push*",
            num_partitions=12,
            partition_bytes=40 * MB,
            virtual=True,
            failures=[FailurePlan(at_time=1.0, downtime=5.0, node_index=2)],
        )
        result = run_sort(rt, config)
        assert result.validated
        assert rt.counters.get("node_failures") == 1

    def test_failure_run_slower_than_clean_run(self):
        from repro.cluster import FailurePlan

        def run(failures):
            rt = make_runtime(
                num_nodes=4,
                store_mib=512,
                config=RuntimeConfig(failure_detection_s=5.0),
            )
            config = SortJobConfig(
                variant="push*",
                num_partitions=12,
                partition_bytes=40 * MB,
                virtual=True,
                failures=failures,
            )
            return run_sort(rt, config).sort_seconds

        clean = run(())
        failed = run((FailurePlan(at_time=1.0, downtime=5.0, node_index=2),))
        assert failed > clean

    @pytest.mark.parametrize("node_index", [-1, 7])
    def test_out_of_range_victim_rejected_before_any_kill(self, node_index):
        from repro.cluster import FailurePlan

        rt = make_runtime(num_nodes=4)
        config = SortJobConfig(
            num_partitions=4,
            partition_bytes=MB,
            failures=[FailurePlan(at_time=0.0, node_index=node_index)],
        )
        with pytest.raises(ValueError, match="out of range"):
            run_sort(rt, config)
        rt.env.run()
        assert all(node.alive for node in rt.cluster.nodes)
        assert rt.counters.get("node_failures") == 0
