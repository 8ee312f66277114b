"""Cross-cutting properties: determinism and shuffle correctness under
randomised parameters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import MB
from repro.futures import Runtime
from repro.sort import VARIANTS, SortJobConfig, run_sort

from tests.conftest import make_node_spec, make_runtime


class TestDeterminism:
    def _run_sort(self):
        rt = make_runtime(num_nodes=3, store_mib=256)
        result = run_sort(
            rt,
            SortJobConfig(
                variant="push*",
                num_partitions=12,
                partition_bytes=30 * MB,
                virtual=True,
            ),
        )
        return result.sort_seconds, rt.stats()

    def test_identical_runs_produce_identical_traces(self):
        """The whole stack is deterministic: same inputs, same JCT, same
        counters -- byte for byte."""
        (t1, s1), (t2, s2) = self._run_sort(), self._run_sort()
        assert t1 == t2
        assert s1 == s2

    def test_different_variants_same_correctness(self):
        for variant in ("simple", "push"):
            rt = make_runtime(num_nodes=2)
            result = run_sort(
                rt,
                SortJobConfig(
                    variant=variant,
                    num_partitions=6,
                    partition_bytes=2 * MB,
                    virtual=False,
                    seed=42,
                ),
            )
            assert result.validated


@settings(max_examples=12, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    num_partitions=st.integers(min_value=1, max_value=10),
    num_nodes=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_every_variant_sorts_correctly(
    variant, num_partitions, num_nodes, seed
):
    """Any variant x cluster-size x partition-count x seed must produce a
    validated (sorted, conserving) output on real data."""
    rt = make_runtime(num_nodes=num_nodes)
    result = run_sort(
        rt,
        SortJobConfig(
            variant=variant,
            num_partitions=num_partitions,
            partition_bytes=1 * MB,
            virtual=False,
            seed=seed,
        ),
    )
    assert result.validated


@settings(max_examples=10, deadline=None)
@given(
    store_mib=st.integers(min_value=24, max_value=96),
    partitions=st.integers(min_value=4, max_value=12),
)
def test_property_memory_pressure_never_breaks_correctness(store_mib, partitions):
    """However small the store (forcing spills, fallbacks, churn), results
    stay correct -- liveness and safety of the memory subsystem."""
    rt = make_runtime(num_nodes=2, store_mib=store_mib)
    result = run_sort(
        rt,
        SortJobConfig(
            variant="push*",
            num_partitions=partitions,
            partition_bytes=16 * MB,
            virtual=True,
        ),
    )
    assert result.validated
