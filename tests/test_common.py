"""Unit tests for units, ids, and seeded randomness."""

import pytest

from repro.common import (
    GB,
    GIB,
    IdGenerator,
    MB,
    NodeId,
    ObjectId,
    TaskId,
    derive_seed,
    format_bytes,
    format_duration,
    parse_bytes,
    seeded_rng,
)


class TestUnits:
    def test_parse_decimal(self):
        assert parse_bytes("2GB") == 2 * GB
        assert parse_bytes("1.5 MB") == 1_500_000

    def test_parse_binary(self):
        assert parse_bytes("1GiB") == GIB
        assert parse_bytes("512 KiB") == 512 * 1024

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_bytes("twelve")
        with pytest.raises(ValueError):
            parse_bytes("5 parsecs")

    def test_format_bytes_round_trip_scale(self):
        assert format_bytes(1_500_000) == "1.50MB"
        assert format_bytes(2 * GB) == "2.00GB"
        assert format_bytes(999) == "999B"

    def test_format_duration(self):
        assert format_duration(0.0005) == "500.0us"
        assert format_duration(0.5) == "500.0ms"
        assert format_duration(42.0) == "42.0s"
        assert format_duration(93.5) == "1m33.5s"
        assert format_duration(3723.0) == "1h2m3s"

    def test_format_duration_negative(self):
        assert format_duration(-5.0) == "-5.0s"


class TestIds:
    def test_generator_is_monotonic(self):
        gen = IdGenerator()
        assert gen.next_task_id() == TaskId(0)
        assert gen.next_task_id() == TaskId(1)
        assert gen.next_object_id() == ObjectId(0)
        assert gen.next_node_id() == NodeId(0)

    def test_two_generators_independent(self):
        a, b = IdGenerator(), IdGenerator()
        a.next_task_id()
        assert b.next_task_id() == TaskId(0)

    def test_str_rendering(self):
        assert str(TaskId(42)) == "T00042"
        assert str(NodeId(3)) == "N003"
        assert str(ObjectId(317)) == "O00317"

    def test_ordering_and_hashing(self):
        assert TaskId(1) < TaskId(2)
        assert len({ObjectId(5), ObjectId(5)}) == 1

    def test_hash_is_the_integer(self):
        # Dict and set lookups run on the integer's own hash.
        assert hash(ObjectId(317)) == 317
        assert hash(NodeId(0)) == 0

    def test_index_is_a_plain_int(self):
        oid = ObjectId(317)
        assert oid.index == 317
        assert type(oid.index) is int

    def test_repr_matches_str(self):
        assert repr(TaskId(42)) == "T00042"
        assert repr(NodeId(3)) == "N003"
        assert repr(ObjectId(317)) == "O00317"
        assert f"{ObjectId(317)}" == "O00317"
        assert str([NodeId(1), NodeId(12)]) == "[N001, N012]"

    def test_ids_of_one_kind_sort_by_index(self):
        ids = [NodeId(10), NodeId(2), NodeId(7)]
        assert sorted(ids) == [NodeId(2), NodeId(7), NodeId(10)]
        assert min(ids) == NodeId(2)
        assert max(TaskId(99), TaskId(100)) == TaskId(100)

    @pytest.mark.parametrize("kind", [NodeId, TaskId, ObjectId])
    def test_pickle_round_trip_keeps_the_type(self, kind):
        import pickle

        copy = pickle.loads(pickle.dumps(kind(9)))
        assert type(copy) is kind
        assert copy == kind(9)
        assert str(copy) == str(kind(9))

    def test_ids_carry_no_instance_state(self):
        # A slotted int subclass: no per-id __dict__ to allocate.
        with pytest.raises(AttributeError):
            ObjectId(1).label = "x"


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(7, "map", 3) == derive_seed(7, "map", 3)

    def test_derive_seed_distinguishes_paths(self):
        seeds = {
            derive_seed(7, "map", 3),
            derive_seed(7, "map", 4),
            derive_seed(7, "reduce", 3),
            derive_seed(8, "map", 3),
        }
        assert len(seeds) == 4

    def test_seeded_rng_reproducible(self):
        a = seeded_rng(1, "x").random(4)
        b = seeded_rng(1, "x").random(4)
        assert (a == b).all()
