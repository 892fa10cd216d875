"""ProcessShardExecutor: real multiprocess shard execution, serial-identical.

The contract under test: ``ShardedSlabHash(executor="process")`` produces
**bit-identical** results, device counters, and migration/resize behavior
versus the serial engine — the workers execute exactly the code the parent
would have, on state shipped via the persistence layer's bit-identical
snapshot bytes.  Plus the failure half: a worker death surfaces as a typed
:class:`~repro.faults.WorkerCrashed` (injected via the ``shard:<i>.worker``
site or genuine), lost-state shards fail loudly before silently serving a
stale respawned mirror, and teardown never leaks child processes.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.engine import MigrationInFlightError, ShardedSlabHash
from repro.faults import FaultAction, FaultPlan, WorkerCrashed

from tests.conftest import make_keys

ALLOC = SlabAllocConfig(num_super_blocks=4, num_memory_blocks=16, units_per_block=64)


def make_pair(
    num_shards=2, buckets=48, *, workers=None, policy=None, seed=29, **table_kwargs
):
    """A serial engine and a process-mode engine with identical construction."""
    kwargs = dict(
        seed=seed,
        backend="vectorized",
        alloc_config=ALLOC,
        load_factor_policy=policy,
        **table_kwargs,
    )
    serial = ShardedSlabHash(num_shards, buckets, **kwargs)
    proc = ShardedSlabHash(
        num_shards, buckets, executor="process", executor_workers=workers, **kwargs
    )
    return serial, proc


def assert_identical(serial, proc):
    """Items, per-shard structure, and device counters all match bit-for-bit."""
    assert len(serial) == len(proc)
    assert sorted(serial.items()) == sorted(proc.items())
    for a, b in zip(serial.shards, proc.shards):
        assert a.num_buckets == b.num_buckets
        assert a.device.counters.as_dict() == b.device.counters.as_dict()
        assert a.alloc.allocated_units == b.alloc.allocated_units


def alive(pid):
    if pid is None:
        return False
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False


class TestProcessEquivalence:
    def test_bulk_ops_bit_identical(self):
        serial, proc = make_pair()
        keys = make_keys(600, seed=1)
        values = (keys * np.uint32(7)) & np.uint32(0xFFFF)
        try:
            for eng in (serial, proc):
                eng.bulk_insert(keys, values)
            assert np.array_equal(serial.bulk_search(keys), proc.bulk_search(keys))
            assert np.array_equal(
                serial.bulk_delete(keys[:150]), proc.bulk_delete(keys[:150])
            )
            misses = make_keys(100, seed=2)
            assert np.array_equal(serial.bulk_search(misses), proc.bulk_search(misses))
            assert_identical(serial, proc)
        finally:
            proc.close()

    def test_concurrent_batch_bit_identical_under_scheduler(self):
        serial, proc = make_pair()
        keys = make_keys(512, seed=3)
        values = keys & np.uint32(0xFFF)
        op_codes = np.concatenate(
            [
                np.full(256, C.OP_INSERT),
                np.full(128, C.OP_SEARCH),
                np.full(128, C.OP_DELETE),
            ]
        )
        stream = np.concatenate([keys[:256], keys[:128], keys[64:192]])
        stream_values = np.concatenate([values[:256], values[:128], values[64:192]])
        try:
            r_serial = serial.concurrent_batch(
                op_codes, stream, stream_values, scheduler_seed=77, wave_size=64
            )
            r_proc = proc.concurrent_batch(
                op_codes, stream, stream_values, scheduler_seed=77, wave_size=64
            )
            assert np.array_equal(r_serial, r_proc)
            assert_identical(serial, proc)
        finally:
            proc.close()

    def test_single_ops_and_sizes(self):
        serial, proc = make_pair()
        keys = make_keys(64, seed=5)
        try:
            for eng in (serial, proc):
                for key in keys:
                    eng.insert(int(key), int(key) % 500 + 1)
            for key in keys[:16]:
                assert serial.search(int(key)) == proc.search(int(key))
            assert serial.delete(int(keys[0])) == proc.delete(int(keys[0]))
            assert np.array_equal(serial.shard_sizes(), proc.shard_sizes())
            assert serial.used_bytes() == proc.used_bytes()
            assert serial.memory_utilization() == pytest.approx(
                proc.memory_utilization()
            )
            assert serial.num_buckets == proc.num_buckets
        finally:
            proc.close()

    def test_incremental_migration_identical(self):
        serial, proc = make_pair()
        keys = make_keys(400, seed=7)
        try:
            for eng in (serial, proc):
                eng.bulk_insert(keys, keys)
                eng.resize_shard(1, 96, incremental=True, step_buckets=4)
            assert serial.migrating_shards() == proc.migrating_shards() == [1]
            while serial.migrating_shards():
                s = serial.migrate_step_shard(1)
                p = proc.migrate_step_shard(1)
                assert (s.buckets_moved, s.items_moved, s.watermark, s.done) == (
                    p.buckets_moved,
                    p.items_moved,
                    p.watermark,
                    p.done,
                )
            assert proc.migrating_shards() == []
            assert_identical(serial, proc)
        finally:
            proc.close()

    def test_policy_pump_and_rebalance_barrier_identical(self):
        policy = LoadFactorPolicy(min_buckets=2).deferred()
        serial, proc = make_pair(policy=policy, buckets=8)
        keys = make_keys(500, seed=9)
        try:
            for eng in (serial, proc):
                eng.bulk_insert(keys, keys)
                eng.maybe_resize()
            r_serial = serial.rebalance()
            r_proc = proc.rebalance()
            assert [(r.old_buckets, r.new_buckets) for r in r_serial] == [
                (r.old_buckets, r.new_buckets) for r in r_proc
            ]
            assert_identical(serial, proc)
        finally:
            proc.close()

    def test_save_from_process_mode_round_trips(self, tmp_path):
        serial, proc = make_pair()
        keys = make_keys(300, seed=11)
        try:
            for eng in (serial, proc):
                eng.bulk_insert(keys, keys)
            path_serial = str(tmp_path / "serial-snap")
            path_proc = str(tmp_path / "proc-snap")
            serial.save(path_serial)
            proc.save(path_proc)  # save barriers: collects worker state first
            restored = ShardedSlabHash.load(path_proc)
            assert restored.process_executor is None  # restored engines are serial
            assert sorted(restored.items()) == sorted(serial.items())
            for a, b in zip(ShardedSlabHash.load(path_serial).shards, restored.shards):
                assert a.device.counters.as_dict() == b.device.counters.as_dict()
        finally:
            proc.close()

    def test_worker_cpu_accounting_accumulates(self):
        _, proc = make_pair(workers=2)
        try:
            keys = make_keys(400, seed=13)
            proc.bulk_insert(keys, keys)
            cpu = proc.process_executor.worker_cpu_seconds()
            assert len(cpu) == 2
            assert all(seconds > 0 for seconds in cpu)
            proc.process_executor.reset_worker_cpu()
            assert proc.process_executor.worker_cpu_seconds() == [0.0, 0.0]
        finally:
            proc.close()


def _mixed_stream(seed):
    """Inserts of fresh keys interleaved with searches and deletes of them."""
    keys = make_keys(160, seed=seed)
    tail = np.array([C.OP_SEARCH, C.OP_DELETE])[np.arange(80) % 2]
    op_codes = np.concatenate([np.full(160, C.OP_INSERT), tail])
    stream = np.concatenate([keys, keys[:80]])
    return op_codes, stream, stream & np.uint32(0xFFFF)


def _summary(eng):
    """Every summary read; in process mode these query the workers when stale."""
    return [
        len(eng),
        eng.num_buckets,
        eng.migrating_shards(),
        eng.shard_sizes().tolist(),
        eng.used_bytes(),
    ]


def _execute_shard_batches(scheduler_seed):
    def program(eng):
        eng.bulk_insert(make_keys(200, seed=43), make_keys(200, seed=43))
        op_codes, stream, values = _mixed_stream(44)
        out = []
        for shard, idx in enumerate(eng.admit_partition(stream)):
            seed = None if scheduler_seed is None else scheduler_seed + shard
            out.append(
                eng.execute_shard_batch(
                    shard, op_codes[idx], stream[idx], values[idx],
                    scheduler_seed=seed, wave_size=16,
                )
            )
        return out

    return program


def _concurrent_phased(eng):
    op_codes, stream, values = _mixed_stream(45)
    return [eng.concurrent_batch(op_codes, stream, values, scheduler_seed=None)]


def _stop_the_world_resize(eng):
    keys = make_keys(300, seed=46)
    eng.bulk_insert(keys, keys)
    return [eng.resize_shard(0, 96), eng.resize_shard(1, 24), _summary(eng)]


def _maybe_resize_shard(eng):
    keys = make_keys(400, seed=47)
    eng.bulk_insert(keys, keys)
    return [eng.maybe_resize_shard(1), eng.maybe_resize_shard(0), _summary(eng)]


def _flush(eng):
    keys = make_keys(400, seed=48)
    eng.bulk_insert(keys, keys)
    eng.bulk_delete(keys[::2])
    eng.items()  # syncs a process engine's mirror: flush must mark it stale
    eng.flush()
    return [_summary(eng)]


def _multi_value_key_only(eng):
    keys = make_keys(60, seed=49)
    eng.bulk_insert(np.concatenate([keys, keys, keys[:20]]))
    out = [eng.search_all(int(key)) for key in keys[:30]]
    out += [eng.delete_all(int(key)) for key in keys[10:40]]
    out += [eng.search_all(int(key)) for key in keys[:50]]
    return out + [_summary(eng)]


def _stale_summaries(eng):
    # Each items() syncs a process engine's mirror, so the mutation after
    # it must mark the mirror stale for the summaries to stay correct.
    keys = make_keys(400, seed=50)
    eng.bulk_insert(keys, keys)
    out = [_summary(eng)]
    eng.items()
    eng.resize_shard(1, 96, incremental=True, step_buckets=4)
    out.append(_summary(eng))
    eng.items()
    out.append(eng.migrate_step_shard(1))
    out.append(_summary(eng))
    eng.items()
    eng.bulk_delete(keys[:100])
    return out + [_summary(eng)]


#: (case id, make_pair keyword arguments, program run on both engines).
DISPATCH_CASES = [
    ("execute_shard_batch-seeded", {}, _execute_shard_batches(5)),
    ("execute_shard_batch-phased", {}, _execute_shard_batches(None)),
    ("concurrent_batch-phased", {}, _concurrent_phased),
    ("resize_shard-stop-the-world", {}, _stop_the_world_resize),
    (
        "maybe_resize_shard",
        {"buckets": 8, "policy": LoadFactorPolicy(min_buckets=2).deferred()},
        _maybe_resize_shard,
    ),
    ("flush", {}, _flush),
    (
        "search_all-delete_all-key-only-multi-value",
        {"key_value": False, "unique_keys": False},
        _multi_value_key_only,
    ),
    ("summaries-while-stale", {}, _stale_summaries),
]


def _plain(value):
    """Results as comparable plain Python (arrays become lists)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


class TestDispatchEquivalence:
    """Each engine method, run serially and in workers, agrees bit for bit."""

    @pytest.mark.parametrize(
        "pair_kwargs,program",
        [case[1:] for case in DISPATCH_CASES],
        ids=[case[0] for case in DISPATCH_CASES],
    )
    def test_serial_and_process_engines_agree(self, pair_kwargs, program):
        serial, proc = make_pair(**pair_kwargs)
        try:
            assert _plain(program(serial)) == _plain(program(proc))
            assert_identical(serial, proc)
        finally:
            proc.close()


class TestWorkerCrash:
    def test_injected_kill_raises_worker_crashed(self):
        _, proc = make_pair()
        try:
            keys = make_keys(200, seed=15)
            proc.bulk_insert(keys, keys)
            proc.items()  # sync: the mirror now holds the full state
            plan = FaultPlan({("shard:1.worker", 0): FaultAction(exc="worker")})
            proc.process_executor.faults = plan
            with pytest.raises(WorkerCrashed):
                proc.bulk_search(keys)
            assert plan.fired_sites() == [("shard:1.worker", 0)]
            # The next dispatch respawns the worker from the (fresh) mirror.
            found = proc.bulk_search(keys)
            assert int((found != C.SEARCH_NOT_FOUND).sum()) == len(keys)
        finally:
            proc.close()

    def test_grouped_worker_death_signals_every_hosted_shard(self):
        # Both shards share one worker: killing it must raise once per shard
        # rather than silently serving the second shard from a stale respawn.
        _, proc = make_pair(workers=1)
        try:
            keys = make_keys(200, seed=17)
            proc.bulk_insert(keys, keys)
            proc.items()  # sync the mirror before the crash
            plan = FaultPlan({("shard:0.worker", 0): FaultAction(exc="worker")})
            proc.process_executor.faults = plan
            with pytest.raises(WorkerCrashed):
                proc.bulk_search(keys)  # shard 0's dispatch dies
            with pytest.raises(WorkerCrashed):
                proc.bulk_search(keys)  # shard 1's lost-state signal
            found = proc.bulk_search(keys)  # both signals consumed; serves again
            assert int((found != C.SEARCH_NOT_FOUND).sum()) == len(keys)
        finally:
            proc.close()

    def test_genuine_worker_death_detected_on_dispatch(self):
        _, proc = make_pair()
        try:
            keys = make_keys(100, seed=19)
            proc.bulk_insert(keys, keys)
            proc.items()
            victim = proc.process_executor.worker_pids()[0]
            os.kill(victim, 9)
            with pytest.raises(WorkerCrashed):
                for _ in range(2):  # first dispatch may buffer; recv detects
                    proc.bulk_search(keys)
            found = proc.bulk_search(keys)
            assert int((found != C.SEARCH_NOT_FOUND).sum()) == len(keys)
        finally:
            proc.close()


class TestLifecycle:
    def test_close_kills_workers_and_degrades_to_serial(self):
        serial, proc = make_pair()
        keys = make_keys(250, seed=21)
        for eng in (serial, proc):
            eng.bulk_insert(keys, keys)
        pids = proc.process_executor.worker_pids()
        assert all(alive(pid) for pid in pids)
        proc.close()
        assert not any(alive(pid) for pid in pids)
        assert proc.process_executor is None
        # The mirror was synced on close: serial serving continues seamlessly.
        assert sorted(proc.items()) == sorted(serial.items())
        proc.bulk_insert(make_keys(50, seed=22), make_keys(50, seed=22))
        proc.close()  # idempotent

    def test_context_manager_closes(self):
        keys = make_keys(100, seed=23)
        with ShardedSlabHash(2, 48, alloc_config=ALLOC, executor="process") as eng:
            eng.bulk_insert(keys, keys)
            pids = eng.process_executor.worker_pids()
        assert not any(alive(pid) for pid in pids)

    def test_finalizer_reaps_workers_without_close(self):
        # Crash-safe teardown: a test that forgets close() (or dies) must not
        # leak children — the executor's finalizer terminates them at gc.
        eng = ShardedSlabHash(2, 48, alloc_config=ALLOC, executor="process")
        pids = eng.process_executor.worker_pids()
        assert all(alive(pid) for pid in pids)
        del eng
        gc.collect()
        assert not any(alive(pid) for pid in pids)

    def test_executor_knob_is_validated(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ShardedSlabHash(2, 48, alloc_config=ALLOC, executor="threads")
        eng = ShardedSlabHash(2, 48, alloc_config=ALLOC, executor="serial")
        assert eng.process_executor is None

    def test_double_attach_is_refused(self):
        eng = ShardedSlabHash(2, 48, alloc_config=ALLOC, executor="process")
        try:
            with pytest.raises(RuntimeError, match="already attached"):
                eng.attach_executor("process")
        finally:
            eng.close()
        # After close, re-attaching is allowed again.
        eng.attach_executor("process")
        assert eng.process_executor is not None
        eng.close()

    def test_shard_list_replacement_guarded_in_process_mode(self):
        eng = ShardedSlabHash(2, 48, alloc_config=ALLOC, executor="process")
        try:
            with pytest.raises(RuntimeError, match="process executor"):
                eng.shards = []
        finally:
            eng.close()


class TestRebalanceMigrationBugfix:
    """Satellite regression: rebalance vs in-flight incremental migrations."""

    def test_rebalance_pumps_migration_to_completion_and_matches_dict_model(self):
        policy = LoadFactorPolicy(min_buckets=2)
        eng = ShardedSlabHash(
            2, 24, seed=31, alloc_config=ALLOC, load_factor_policy=policy
        )
        keys = make_keys(400, seed=31)
        model = {}
        eng.bulk_insert(keys, keys)
        for key in keys:
            model[int(key)] = int(key)
        eng.resize_shard(0, 96, incremental=True, step_buckets=2)
        assert eng.migrating_shards() == [0]
        results = eng.rebalance()
        # The in-flight migration was pumped to completion — never rebuilt
        # from a half-migrated bucket view — and the shard then retargeted.
        assert eng.migrating_shards() == []
        assert any(r.trigger in ("manual", "rebalance") for r in results)
        assert sorted(eng.items()) == sorted(model.items())
        found = eng.bulk_search(keys)
        assert np.array_equal(found.astype(np.uint64), keys.astype(np.uint64))

    def test_rebalance_on_migrating_error_refuses_without_touching_state(self):
        policy = LoadFactorPolicy(min_buckets=2)
        eng = ShardedSlabHash(
            2, 24, seed=33, alloc_config=ALLOC, load_factor_policy=policy
        )
        keys = make_keys(300, seed=33)
        eng.bulk_insert(keys, keys)
        eng.resize_shard(1, 96, incremental=True, step_buckets=2)
        watermark = eng.shards[1].migration.watermark
        with pytest.raises(MigrationInFlightError) as excinfo:
            eng.rebalance(on_migrating="error")
        assert excinfo.value.shards == [1]
        # Refused up front: the migration is still in flight, unadvanced.
        assert eng.migrating_shards() == [1]
        assert eng.shards[1].migration.watermark == watermark

    def test_rebalance_on_migrating_is_validated(self):
        eng = ShardedSlabHash(2, 24, alloc_config=ALLOC)
        with pytest.raises(ValueError, match="on_migrating"):
            eng.rebalance(LoadFactorPolicy(min_buckets=2), on_migrating="skip")
