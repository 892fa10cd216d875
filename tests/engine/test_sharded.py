"""Tests for the sharded engine: results must match an unsharded SlabHash."""

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.slab_hash import SlabHash
from repro.engine import ShardedSlabHash
from repro.workloads.generators import missing_queries, unique_random_keys, values_for_keys

from tests.conftest import make_keys

#: Small allocator so each shard stays light.
ALLOC = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=16, units_per_block=64)


def make_engine(num_shards, *, policy="hash", buckets=8, **kwargs):
    return ShardedSlabHash(num_shards, buckets, policy=policy, alloc_config=ALLOC, **kwargs)


def make_pair(num_shards, num_elements, *, policy="hash", seed=0):
    """A sharded engine and an unsharded reference table of equal total size."""
    engine = ShardedSlabHash.for_utilization(
        num_shards, num_elements, 0.6, policy=policy, alloc_config=ALLOC, seed=seed
    )
    single = SlabHash(
        SlabHash.buckets_for_utilization(num_elements, 0.6), alloc_config=ALLOC, seed=seed
    )
    return engine, single


class TestConstruction:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            ShardedSlabHash(0, 8)

    def test_each_shard_has_its_own_device_and_allocator(self):
        engine = make_engine(4)
        assert len({id(s.device) for s in engine.shards}) == 4
        assert len({id(s.alloc) for s in engine.shards}) == 4

    def test_total_buckets_sum_over_shards(self):
        assert make_engine(3, buckets=8).num_buckets == 24


@pytest.mark.smoke
class TestBulkEquivalence:
    """Sharded bulk results must be bit-identical to one unsharded table."""

    @pytest.mark.parametrize("policy", ("hash", "range"))
    @pytest.mark.parametrize("num_shards", (1, 2, 5, 8))
    def test_build_search_delete_match_single_table(self, num_shards, policy):
        n = 600
        keys = unique_random_keys(n, seed=21)
        values = values_for_keys(keys)
        engine, single = make_pair(num_shards, n, policy=policy, seed=1)

        engine.bulk_build(keys, values)
        single.bulk_build(keys, values)
        assert len(engine) == len(single) == n

        hits = keys[::3]
        misses = missing_queries(200, seed=5)
        assert np.array_equal(engine.bulk_search(hits), single.bulk_search(hits))
        assert np.array_equal(engine.bulk_search(misses), single.bulk_search(misses))

        doomed = np.concatenate([keys[:200], misses[:50]])
        assert np.array_equal(engine.bulk_delete(doomed), single.bulk_delete(doomed))
        assert np.array_equal(engine.bulk_search(hits), single.bulk_search(hits))
        assert len(engine) == len(single)

    def test_duplicate_keys_mode_matches_single_table(self):
        keys = np.repeat(make_keys(40, seed=3), 3)  # every key three times
        values = np.arange(len(keys), dtype=np.uint32)
        engine = make_engine(4, unique_keys=False, seed=2)
        single = SlabHash(32, unique_keys=False, alloc_config=ALLOC, seed=2)
        engine.bulk_insert(keys, values)
        single.bulk_insert(keys, values)
        assert np.array_equal(engine.bulk_delete(keys), single.bulk_delete(keys))
        assert len(engine) == len(single) == 0

    @pytest.mark.parametrize("policy", ("hash", "range"))
    def test_reserved_keys_are_rejected_like_the_single_table(self, policy):
        """Out-of-domain keys must raise, never be silently dropped."""
        engine = make_engine(2, policy=policy, buckets=16)
        bad = np.array([0xFFFFFFFF], dtype=np.uint64)
        with pytest.raises(ValueError):
            engine.bulk_insert(bad, np.array([7], dtype=np.uint32))
        with pytest.raises(ValueError):
            engine.bulk_search(bad)
        with pytest.raises(ValueError):
            engine.insert(0xFFFFFFFE, 1)
        assert len(engine) == 0

    def test_items_match_single_table_as_sets(self):
        keys = make_keys(150, seed=8)
        values = values_for_keys(keys)
        engine, single = make_pair(3, 150, seed=4)
        engine.bulk_build(keys, values)
        single.bulk_build(keys, values)
        assert set(engine.items()) == set(single.items())


@pytest.mark.smoke
class TestConcurrentEquivalence:
    def test_mixed_batch_matches_single_table(self):
        """Insert/search/delete on disjoint key sets: schedule-independent."""
        rng = np.random.default_rng(7)
        stored = unique_random_keys(300, seed=31)
        values = values_for_keys(stored)
        new_keys = missing_queries(100, seed=33)

        ops, keys = [], []
        for key in stored[:100]:
            ops.append(C.OP_DELETE), keys.append(key)
        for key in stored[100:200]:
            ops.append(C.OP_SEARCH), keys.append(key)
        for key in new_keys:
            ops.append(C.OP_INSERT), keys.append(key)
        order = rng.permutation(len(ops))
        ops = np.array(ops, dtype=np.int64)[order]
        keys = np.array(keys, dtype=np.uint32)[order]
        vals = values_for_keys(keys)

        engine, single = make_pair(4, 300, seed=6)
        engine.bulk_build(stored, values)
        single.bulk_build(stored, values)

        out_sharded = engine.concurrent_batch(ops, keys, vals, scheduler_seed=11)
        out_single = single.concurrent_batch(ops, keys, vals)
        assert np.array_equal(out_sharded, out_single)
        assert len(engine) == len(single)

    def test_scheduled_batch_seeds_shard_s_with_seed_plus_s(self):
        """The schedule contract that live service execution and WAL replay share.

        The service runs shard ``s``'s slice with ``execute_shard_batch(s,
        ..., scheduler_seed=seed + s)``; recovery replays the whole batch
        with ``concurrent_batch(..., scheduler_seed=seed)``.  Both must draw
        the same schedules, so racing inserts and searches of the same keys
        resolve alike and the device counters agree.
        """
        keys = make_keys(160, seed=51)
        stream = np.concatenate([keys, keys])
        ops = np.concatenate([np.full(160, C.OP_INSERT), np.full(160, C.OP_SEARCH)])
        order = np.random.default_rng(52).permutation(stream.size)
        ops, stream = ops[order], stream[order]
        whole, split = make_engine(3, buckets=16, seed=5), make_engine(3, buckets=16, seed=5)
        out_whole = whole.concurrent_batch(ops, stream, stream, scheduler_seed=11, wave_size=4)
        out_split = np.zeros_like(out_whole)
        for shard, idx in enumerate(split.admit_partition(stream)):
            out_split[idx] = split.execute_shard_batch(
                shard, ops[idx], stream[idx], stream[idx],
                scheduler_seed=11 + shard, wave_size=4,
            )
        assert np.array_equal(out_whole, out_split)
        for a, b in zip(whole.devices, split.devices):
            assert a.counters.as_dict() == b.counters.as_dict()


class TestRoundRobinPolicy:
    def test_build_only_loads_are_allowed_and_balanced(self):
        keys = make_keys(80, seed=5)
        engine = make_engine(4, policy="round-robin")
        engine.bulk_insert(keys, values_for_keys(keys))
        assert len(engine) == 80
        assert engine.shard_sizes().tolist() == [20, 20, 20, 20]

    def test_duplicate_keys_in_unique_mode_are_refused(self):
        """Round-robin would split a repeated key across shards, breaking REPLACE."""
        engine = make_engine(2, policy="round-robin")
        with pytest.raises(ValueError, match="round-robin"):
            engine.bulk_insert(np.array([5, 5]), np.array([1, 2]))
        # Duplicates mode stores every occurrence anyway, so it is allowed.
        relaxed = make_engine(2, policy="round-robin", unique_keys=False)
        relaxed.bulk_insert(np.array([5, 5]), np.array([1, 2]))
        assert len(relaxed) == 2

    def test_lookups_through_round_robin_are_refused(self):
        engine = make_engine(2, policy="round-robin")
        engine.bulk_insert(*[np.array([5]), np.array([1])])
        for call in (
            lambda: engine.bulk_search(np.array([5])),
            lambda: engine.bulk_delete(np.array([5])),
            lambda: engine.concurrent_batch(
                np.array([C.OP_SEARCH]), np.array([5]), np.array([0])
            ),
            lambda: engine.search(5),
            lambda: engine.delete(5),
        ):
            with pytest.raises(ValueError, match="round-robin"):
                call()


class TestSingleOperationApi:
    def test_insert_search_delete_roundtrip(self):
        engine = make_engine(3, seed=9)
        engine.insert(1234, 99)
        assert 1234 in engine
        assert engine.search(1234) == 99
        assert engine.delete(1234)
        assert 1234 not in engine
        assert not engine.delete(1234)

    def test_flush_compacts_all_shards(self):
        keys = make_keys(200, seed=6)
        engine = make_engine(4, buckets=4, seed=3)
        engine.bulk_insert(keys, values_for_keys(keys))
        engine.bulk_delete(keys[:150])
        before = engine.used_bytes()
        engine.flush()
        assert engine.used_bytes() <= before
        assert len(engine) == 50


class TestMeasurement:
    def test_measure_accounts_all_routed_ops(self):
        keys = make_keys(128, seed=2)
        engine = make_engine(4, seed=1)
        stats = engine.measure(
            lambda: engine.bulk_insert(keys, values_for_keys(keys)), label="build"
        )
        assert stats.num_ops == 128
        assert sum(p.num_ops for p in stats.shards) == 128
        assert stats.aggregate.kernel_launches >= 4

    def test_parallel_time_is_max_of_shards(self):
        keys = make_keys(256, seed=4)
        engine = make_engine(4, seed=1)
        stats = engine.measure(lambda: engine.bulk_insert(keys, values_for_keys(keys)))
        assert stats.parallel_seconds == max(p.seconds for p in stats.shards)
        assert stats.parallel_seconds < stats.serial_seconds
        assert 1.0 < stats.parallel_speedup <= 4.0

    def test_scale_to_ops_preserves_relative_shard_loads(self):
        keys = make_keys(128, seed=4)
        engine = make_engine(4, seed=1)
        stats = engine.measure(
            lambda: engine.bulk_insert(keys, values_for_keys(keys)), scale_to_ops=12800
        )
        assert stats.num_ops == 12800
        assert sum(p.num_ops for p in stats.shards) == pytest.approx(12800, abs=4)
