"""Service-layer behavior with the multiprocess shard executor.

The process executor must be invisible in the results: the same traffic
through ``ServiceConfig(executor="process")`` and a plain serial service
yields bit-identical items, search results, device counters, and migration
accounting.  Worker death is a first-class fault site (``shard:<i>.worker``)
that surfaces as :class:`~repro.faults.WorkerCrashed`, trips the lane
breaker, and restores through the PR 7 quarantine path — the rebuilt shard
is re-shipped to a respawned worker.  Also pins the satellite stats fixes:
``deadline_forced_fraction`` / ``warp_aligned_fraction`` clamp to finite
values when a lane (or the whole service) cut zero batches.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.core import constants as C
from repro.core.config import SlabAllocConfig
from repro.core.resize import LoadFactorPolicy
from repro.core.slab_hash import SlabHash
from repro.engine import ShardedSlabHash
from repro.faults import FaultAction, FaultPlan, WorkerCrashed
from repro.persist.wal import WriteAheadLog
from repro.service import (
    LANE_OPEN,
    ServiceConfig,
    ShardQuarantined,
    SlabHashService,
)
from repro.perf.latency import LatencyReport
from repro.service.service import ServiceStats, ShardLaneStats

SMALL_ALLOC = SlabAllocConfig(num_super_blocks=2, num_memory_blocks=8, units_per_block=64)


def make_engine(executor=None, **kwargs) -> ShardedSlabHash:
    return ShardedSlabHash(
        3, 16, alloc_config=SMALL_ALLOC, seed=5, backend="vectorized",
        executor=executor, **kwargs
    )


async def settle(service: SlabHashService) -> None:
    while service.pending or service._restore_tasks:
        await asyncio.sleep(0.001)


def engine_state(engine: ShardedSlabHash):
    return (
        sorted(engine.items()),
        [shard.num_buckets for shard in engine.shards],
        [device.counters.as_dict() for device in engine.devices],
    )


class TestProcessServiceEquivalence:
    def test_process_service_matches_serial(self, tmp_path):
        """Same traffic, serial vs process executor: bit-identical outcome."""

        async def run(executor, wal_path):
            engine = ShardedSlabHash(
                4, 64, seed=5, backend="vectorized",
                load_factor_policy=LoadFactorPolicy(min_buckets=2),
            )
            config = ServiceConfig(
                max_delay=0.0005, scheduler_seed=17, wave_size=64,
                executor=executor, executor_workers=2,
            )
            wal = WriteAheadLog(str(wal_path))
            try:
                async with SlabHashService(engine, config=config, wal=wal) as service:
                    rng = np.random.default_rng(3)
                    keys = rng.choice(2**31, size=2000, replace=False)
                    await asyncio.gather(
                        *[service.insert(int(k), int(k % 1000 + 1)) for k in keys[:1000]]
                    )
                    found = await asyncio.gather(
                        *[service.search(int(k)) for k in keys[:400]]
                    )
                    await asyncio.gather(*[service.delete(int(k)) for k in keys[:150]])
                    stats = service.stats()
                    return {
                        "found": found,
                        "ops": (stats.ops_completed, stats.ops_failed),
                        "migration": (
                            stats.migration_steps,
                            stats.migration_buckets_moved,
                            stats.migration_items_moved,
                        ),
                        "state": engine_state(engine),
                    }
            finally:
                engine.close()
                wal.close()

        async def main():
            serial = await run(None, tmp_path / "serial.wal")
            process = await run("process", tmp_path / "process.wal")
            assert serial == process

        asyncio.run(asyncio.wait_for(main(), timeout=60))

    def test_process_executor_requires_sharded_engine(self):
        table = SlabHash(32, alloc_config=SMALL_ALLOC)
        with pytest.raises(ValueError, match="ShardedSlabHash"):
            SlabHashService(table, config=ServiceConfig(executor="process"))

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            SlabHashService(make_engine(), config=ServiceConfig(executor="thread"))

    def test_engine_with_attached_executor_is_used_as_is(self):
        async def main():
            engine = make_engine(executor="process", executor_workers=2)
            attached = engine.process_executor
            try:
                config = ServiceConfig(max_batch_size=64, max_delay=0.0005)
                async with SlabHashService(engine, config=config) as service:
                    assert service.engine.process_executor is attached
                    await service.insert(7, 70)
                    assert await service.search(7) == 70
            finally:
                engine.close()

        asyncio.run(asyncio.wait_for(main(), timeout=30))


class TestWorkerDeathQuarantine:
    def test_worker_death_trips_and_restores_from_checkpoint(self, tmp_path):
        """A killed worker = dirty lane failure: trip, quarantine, rebuild
        from checkpoint + WAL tail, re-ship to a respawned worker, serve on.

        Occurrence 5 lands on a post-checkpoint ``concurrent`` dispatch
        (per shard-1 batch the site ticks twice — execute then pump), so the
        crash fails a batch's futures and writes a durable abort marker.
        """

        async def main():
            plan = FaultPlan({("shard:1.worker", 5): FaultAction(exc="worker")})
            wal = WriteAheadLog(str(tmp_path / "svc.wal"))
            config = ServiceConfig(
                max_batch_size=128, max_delay=0.0005, breaker_threshold=1,
                executor="process", executor_workers=2,
            )
            engine = make_engine()
            service = SlabHashService(engine, config=config, wal=wal, faults=plan)
            model = {}
            try:
                async with service:
                    pre = np.arange(1, 60, dtype=np.uint64)
                    await service.submit_many(
                        np.full(len(pre), C.OP_INSERT, dtype=np.int64),
                        pre,
                        (pre * 2).astype(np.uint32),
                    )
                    for key in pre:
                        model[int(key)] = int(key) * 2
                    service.checkpoint(str(tmp_path / "svc.snap"))
                    for key in range(60, 240):
                        try:
                            await service.insert(key, key * 2)
                            model[key] = key * 2
                        except (WorkerCrashed, ShardQuarantined):
                            pass
                    await settle(service)
                    stats = service.stats()
                    assert stats.breaker_trips >= 1
                    assert stats.shard_restores >= 1
                    assert stats.batches_aborted >= 1
                    assert all(state != LANE_OPEN for state in service.lane_states)
                    # Exactly-once across the worker crash + restore.
                    for key, value in model.items():
                        assert await service.search(key) == value, key
                    # The executor is healthy again: every shard dispatches.
                    assert engine.process_executor is not None
                    assert not engine.process_executor._lost
            finally:
                engine.close()
                wal.close()

        asyncio.run(asyncio.wait_for(main(), timeout=60))

    def test_worker_death_in_pump_trips_instead_of_masquerading_as_resize_failure(
        self, tmp_path
    ):
        """Regression: a worker killed during the between-batch
        ``maybe_resize`` pump must trip the lane, not be swallowed into the
        resize-failure log — the acked batch's effects died with the worker,
        and serving on would silently respawn from a stale mirror."""

        async def main():
            # Occurrence 4 lands on the pump dispatch that follows the first
            # post-checkpoint shard-1 batch (ticks 0-2 are pre-checkpoint
            # traffic + checkpoint sync; 3 is that batch's execute).
            plan = FaultPlan({("shard:1.worker", 4): FaultAction(exc="worker")})
            wal = WriteAheadLog(str(tmp_path / "svc.wal"))
            config = ServiceConfig(
                max_batch_size=128, max_delay=0.0005, breaker_threshold=1,
                executor="process", executor_workers=2,
            )
            engine = make_engine()
            service = SlabHashService(engine, config=config, wal=wal, faults=plan)
            model = {}
            try:
                async with service:
                    pre = np.arange(1, 60, dtype=np.uint64)
                    await service.submit_many(
                        np.full(len(pre), C.OP_INSERT, dtype=np.int64),
                        pre,
                        (pre * 2).astype(np.uint32),
                    )
                    for key in pre:
                        model[int(key)] = int(key) * 2
                    service.checkpoint(str(tmp_path / "svc.snap"))
                    for key in range(60, 240):
                        try:
                            await service.insert(key, key * 2)
                            model[key] = key * 2
                        except (WorkerCrashed, ShardQuarantined):
                            pass
                    await settle(service)
                    stats = service.stats()
                    assert stats.breaker_trips >= 1
                    assert stats.shard_restores >= 1
                    # The crash hit the pump, not a batch — nothing aborted,
                    # and the acked batch replays from the WAL at restore.
                    assert all(
                        "WorkerCrashed" not in entry
                        for entry in stats.resize_failures
                    )
                    # Exactly-once: every acked op survives the crash.
                    for key, value in model.items():
                        assert await service.search(key) == value, key
            finally:
                engine.close()
                wal.close()

        asyncio.run(asyncio.wait_for(main(), timeout=60))

    def test_worker_death_without_checkpoint_soft_restores(self):
        """No checkpoint: the lane cools down, half-opens, and the shard is
        re-shipped from the parent mirror (state as of the last sync)."""

        async def main():
            plan = FaultPlan({("shard:0.worker", 2): FaultAction(exc="worker")})
            config = ServiceConfig(
                max_batch_size=32, max_delay=0.0005, breaker_threshold=1,
                executor="process", executor_workers=3,
            )
            engine = make_engine()
            service = SlabHashService(engine, config=config, faults=plan)
            try:
                async with service:
                    for key in range(1, 120):
                        try:
                            await service.insert(key, key + 1)
                        except (WorkerCrashed, ShardQuarantined):
                            pass
                    await settle(service)
                    stats = service.stats()
                    assert stats.breaker_trips >= 1
                    # Post-restore the service still serves every shard.
                    assert await service.search(1) in (2, C.SEARCH_NOT_FOUND)
                    await service.insert(500, 501)
                    assert await service.search(500) == 501
            finally:
                engine.close()

        asyncio.run(asyncio.wait_for(main(), timeout=60))


class TestStatsFractionClamps:
    def test_zero_batch_lane_stats_are_finite(self):
        lane = ShardLaneStats(
            shard=0, ops_enqueued=0, batches_cut=0, aligned_batches=0,
            forced_batches=0, forced_aligned_batches=0, modelled_seconds=0.0,
        )
        assert lane.deadline_forced_fraction == 0.0
        assert lane.warp_aligned_fraction == 0.0
        document = lane.as_dict()
        assert math.isfinite(document["deadline_forced_fraction"])
        assert math.isfinite(document["warp_aligned_fraction"])

    def test_all_quarantined_service_stats_are_finite(self):
        """Every lane open from the start: zero batches cut anywhere, and
        every fraction in stats()/as_dict() must still be finite."""

        async def main():
            async with SlabHashService(
                make_engine(), config=ServiceConfig(max_batch_size=64, max_delay=0.0005)
            ) as service:
                for shard in range(service.engine.num_shards):
                    service._lane_state[shard] = LANE_OPEN
                stats = service.stats()
                assert stats.batches_executed == 0
                assert stats.deadline_forced_fraction == 0.0
                assert stats.warp_aligned_fraction == 0.0
                document = stats.as_dict()
                assert math.isfinite(document["deadline_forced_fraction"])
                assert math.isfinite(document["warp_aligned_fraction"])
                for lane in stats.per_shard:
                    assert lane.deadline_forced_fraction == 0.0
                    assert lane.warp_aligned_fraction == 0.0
                for shard in range(service.engine.num_shards):
                    service._lane_state[shard] = "closed"

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    def test_service_stats_fractions_clamp_directly(self):
        stats = ServiceStats(
            ops_enqueued=0, ops_completed=0, ops_failed=0, batches_executed=0,
            warp_aligned_batches=0, deadline_forced_batches=0,
            mean_batch_size=0.0, latency=LatencyReport.from_samples([]),
            wall_seconds=0.0, ops_per_second=0.0, modelled_seconds=0.0,
            modelled_ops_per_second=0.0,
        )
        assert stats.deadline_forced_fraction == 0.0
        assert stats.warp_aligned_fraction == 0.0
        assert math.isfinite(stats.as_dict()["deadline_forced_fraction"])
