"""``serve_closed`` and ``serve_small``: Γ1 traffic through ``SlabHashService``.

Both are closed loops: each client sends an admission and waits for its
reply before sending the next.  ``serve_closed`` has 32 clients sending
320-op admissions, so batches reach ``max_batch_size`` and per-op costs
dominate; ``serve_small`` has 8 clients sending 40-op admissions, so batches
stay small, many are cut by the 2 ms deadline, and per-batch fixed costs
dominate.  Both run one process and one event loop with coroutine clients
and no threads, over a 2-shard engine (one shard per CPU of the reference
host) holding the same population, with the write-ahead log on and flushed
to the OS without fsync.  The engine stores key-value pairs with insert/delete-first
semantics (``unique_keys=False``): a deleted slot is reused by later inserts,
so the stationary stream keeps the chains at one length.  With replace
semantics every delete leaves a tombstone, the table grows with the stream,
and a longer window would measure a slower table.

A run is: set-up (engine built, bulk-loaded and service started; repeated,
median reported), an untimed closed-loop warm-up until the allocator's pages
are resident, the timed window, then checkpoint / WAL tail / crash-restart
rounds.  Admissions are generated on demand, a block at a time, so no input
array grows with the window; the time the clients spend generating and
checking them is left out of the window's wall time.  Every admission's
answers, the final contents and every recovered table are checked against
the :mod:`perfbench.stream` model.
"""

from __future__ import annotations

import asyncio
import gc
import os
import sys
import time
from dataclasses import dataclass, replace
from statistics import median
from typing import List, Optional

import numpy as np

from perfbench.host import Usage, anon_huge_mb, peak_rss_mb
from perfbench.metrics import MIN_TAIL_SAMPLES, Result, percentile_ms
from perfbench.stream import Admissions, Gamma1Stream
from perfbench.tracing import Tracer, layer_metrics
from repro.engine.sharded import ShardedSlabHash
from repro.gpusim.counters import Counters
from repro.persist.wal import WriteAheadLog
from repro.service import ServiceConfig, SlabHashService
from repro.service.errors import ServiceError


@dataclass(frozen=True)
class ServeConfig:
    """Sizes of one service workload."""

    population: int = 20_000
    admission: int = 320
    #: Closed-loop clients (also used for the warm-up and WAL tails).
    clients: int = 32
    #: Admissions sent as one ``submit_many`` by the warm-up and WAL-tail
    #: clients, so that small-admission workloads finish them in seconds.
    group: int = 1
    max_batch: int = 2048
    warmup_ops: int = 1_000_000
    #: If nonzero the window is exactly this many admissions, whatever the
    #: clock says, so that its op count repeats from run to run.
    window_admissions: int = 0
    setups: int = 9
    restarts: int = 11
    tail_ops: int = 50_000
    #: Hit keys stay this many admissions clear of any update to them.
    margin: int = 96
    #: Samples a reported percentile needs beyond it.
    min_tail: int = MIN_TAIL_SAMPLES


#: One shard per CPU of the reference host.
SHARDS = 2
_REFUSED = 0xFFFFFFFE

CLOSED = ServeConfig()
SMALL = ServeConfig(admission=40, clients=8, group=8, margin=512)


def _admission_count(config: ServeConfig, ops: int) -> int:
    return max(1, -(-ops // config.admission))


class _Feed:
    """The stream's admissions in order, generated a block at a time.

    Only the block being handed out is kept; an admission in flight holds a
    view of its own.  ``busy_s`` is the time spent generating admissions and
    checking answers, the clients' own work.
    """

    BLOCK_OPS = 16_384

    def __init__(self, stream: Gamma1Stream) -> None:
        self.stream = stream
        self.block = max(1, self.BLOCK_OPS // stream.admission)
        self._first = 0
        self._ops: Optional[Admissions] = None
        self.busy_s = 0.0

    def take(self, index: int, count: int) -> Admissions:
        """Admissions ``index .. index+count-1``; ``index`` never goes back."""
        started = time.perf_counter()
        offset = index - self._first
        size = self.stream.admission
        if self._ops is None or (offset + count) * size > len(self._ops.keys):
            self._first, offset = index, 0
            self._ops = self.stream.admissions(index, max(self.block, count))
        span = slice(offset * size, (offset + count) * size)
        ops = self._ops
        taken = Admissions(size, ops.op_codes[span], ops.keys[span], ops.values[span],
                           ops.expected[span])
        self.busy_s += time.perf_counter() - started
        return taken


class _Run:
    """One set-up: the engine, the WAL and the running service."""

    def __init__(self, config: ServeConfig, stream: Gamma1Stream, seed: int,
                 workdir: str) -> None:
        self.config = config
        self.stream = stream
        self.engine = ShardedSlabHash.for_utilization(
            SHARDS, config.population, 0.6, seed=seed, unique_keys=False
        )
        keys, values = stream.initial()
        self.engine.bulk_build(keys, values)
        self.wal_path = os.path.join(workdir, "wal.log")
        if os.path.exists(self.wal_path):
            os.remove(self.wal_path)
        self.service_config = ServiceConfig(max_batch_size=config.max_batch)
        self.service = SlabHashService(
            self.engine, config=self.service_config, wal=WriteAheadLog(self.wal_path)
        )
        self.feed = _Feed(stream)
        self.cursor = 0  # admissions taken, in stream order
        self.attempted = 0
        self.wrong = 0
        self.failures: List[str] = []

    async def closed_loop(self, count: int, deadline: float = float("inf"), least: int = 0,
                          latency: Optional[List[float]] = None, group: int = 1) -> None:
        """Clients take up to ``count`` admissions in stream order; past
        ``deadline`` they stop once ``least`` have been taken.

        Each client sends ``group`` consecutive admissions as one
        ``submit_many`` and waits for the reply.  Taking them and calling
        ``submit_many`` happen with no await between them, so admissions enter
        the per-shard logs in stream order and every key's operations execute
        in that order.
        """
        first = self.cursor
        stop = first + count

        def more() -> bool:
            return self.cursor < stop and (
                self.cursor - first < least or time.perf_counter() < deadline)

        async def client() -> None:
            while more():
                index = self.cursor
                self.cursor = min(stop, index + group)
                ops = self.feed.take(index, self.cursor - index)
                sent = time.perf_counter()
                answers = await self.submit(index, ops)
                if latency is not None:
                    latency.append(time.perf_counter() - sent)
                started = time.perf_counter()
                self.attempted += len(ops.keys)
                self.wrong += int(np.count_nonzero(answers != ops.expected))
                self.feed.busy_s += time.perf_counter() - started

        await asyncio.gather(*[client() for _ in range(self.config.clients)])

    async def submit(self, index: int, ops: Admissions) -> np.ndarray:
        """Send ``ops`` as one admission; a refusal fails every op of it."""
        try:
            return await self.service.submit_many(ops.op_codes, ops.keys, ops.values)
        except ServiceError as exc:
            # No model answer equals this, so every op counts as failed.
            self.failures.append(f"admission {index}: {type(exc).__name__}: {exc}")
            return np.full(len(ops.keys), _REFUSED, dtype=np.uint32)

    def check_contents(self, engine: ShardedSlabHash, result: Result, what: str) -> None:
        lo, hi = self.stream.live_range(self.cursor)
        expected = self.stream.space.contents(lo, hi)
        actual = {int(key): int(value) for key, value in engine.items()}
        result.check(actual == expected, f"{what}: table contents differ from the model")

    def check_answers(self, result: Result) -> None:
        result.attempted = self.attempted
        result.failed += self.wrong
        result.check(self.wrong == 0, f"{self.wrong} answers differ from the model")
        result.mismatches.extend(self.failures[:10])


def _events(engine: ShardedSlabHash) -> Counters:
    """Device events of every shard, summed."""
    total = Counters()
    for table in engine.shards:
        total += table.device.counters
    return total


async def _serve(config: ServeConfig, seed: int, seconds: float, workdir: str,
                 tracer: Optional[Tracer]) -> Result:
    result = Result()
    stream = Gamma1Stream(seed, config.population, config.admission, config.margin)
    setup_times = []
    for attempt in range(config.setups):
        gc.collect()
        started = time.perf_counter()
        run = _Run(config, stream, seed, workdir)
        await run.service.start()
        setup_times.append(time.perf_counter() - started)
        if attempt + 1 < config.setups:
            await run.service.stop()
            run.service.wal.close()
            del run

    # The warm-up runs in parts with a checkpoint after each, and the restart
    # rounds after the window take as many again, so the checkpoint samples
    # spread over the run rather than one moment of the host.
    warm_start = Usage.now()
    part = -(-_admission_count(config, config.warmup_ops) // config.restarts)
    checkpoints = []
    for index in range(config.restarts):
        await run.closed_loop(part, group=config.group)
        started = time.perf_counter()
        run.service.checkpoint(os.path.join(workdir, f"warm-snapshot-{index}"))
        checkpoints.append(time.perf_counter() - started)
    warm = Usage.now().since(warm_start)
    warm["checkpoint_s"] = sum(checkpoints)
    warmup_admissions = run.cursor

    service, engine = run.service, run.engine
    latency: List[float] = []
    stats_before = service.stats()
    events_before = _events(engine)
    wal_before = service.wal.size()
    first = run.cursor
    feed_before = run.feed.busy_s
    # A p99 needs ``min_tail`` samples beyond it, so a slow program runs a
    # longer window rather than print no tail figure.
    least = config.window_admissions or 100 * config.min_tail
    window_start = Usage.now()
    await run.closed_loop(config.window_admissions or sys.maxsize,
                          window_start.wall + seconds, least, latency)
    window_end = Usage.now()
    window = window_end.since(window_start)
    window["anon_huge_mb"] = anon_huge_mb()
    window["feed_s"] = run.feed.busy_s - feed_before
    # The program's share of the window: the clients' generating and checking
    # blocks the one event loop, so nothing of the program runs meanwhile.
    program_s = window["wall_s"] - window["feed_s"]
    window_admissions = run.cursor - first
    stats_after = service.stats()
    events = _events(engine).diff(events_before)
    window_ops = window_admissions * config.admission
    lanes = list(zip(stats_before.per_shard, stats_after.per_shard))
    modelled = max(after.modelled_seconds - before.modelled_seconds for before, after in lanes)
    lane_ops = np.array([after.ops_enqueued - before.ops_enqueued for before, after in lanes],
                        dtype=np.float64)
    batches = stats_after.batches_executed - stats_before.batches_executed
    forced = stats_after.deadline_forced_batches - stats_before.deadline_forced_batches
    used_bytes = sum(table.used_bytes() for table in engine.shards)
    live = len(engine)
    result.check(live == config.population, f"{live} live keys, expected {config.population}")
    wal_bytes = service.wal.size() - wal_before
    del service, engine

    persist_start = time.perf_counter()
    round_checkpoints, restarts, snapshot_bytes = await _restart_rounds(run, result, workdir)
    checkpoints += round_checkpoints
    persist_end = time.perf_counter()
    run.check_answers(result)

    result.end_to_end = {
        "setup_s": median(setup_times),
        "throughput_ops_s": window_ops / program_s,
        "latency_p50_ms": percentile_ms(latency, 50, config.min_tail),
        "latency_p99_ms": percentile_ms(latency, 99, config.min_tail),
        # The service's mixed batches have no separate bulk phases; these are
        # the window's completed ops of each kind per second.
        "insert_ops_s": window_ops / 5 / program_s,
        "delete_ops_s": window_ops / 5 / program_s,
        "search_ops_s": window_ops * 3 / 5 / program_s,
        "checkpoint_s": median(checkpoints),
        "restart_s": median(restarts),
        "peak_rss_mb": peak_rss_mb(),
        "device_bytes_per_key": used_bytes / live,
        "modelled_ops_s": window_ops / modelled,
    }
    result.per_layer = {
        "service.batches": batches,
        "service.ops_per_batch": window_ops / batches if batches else 0.0,
        "service.forced_cut_fraction": forced / batches if batches else 0.0,
        "wal.bytes_per_op": wal_bytes / window_ops,
        "engine.shard_ops_skew": float(lane_ops.max() / lane_ops.mean()),
        "alloc.page_faults": window["minor_faults"],
        "alloc.sys_s": window["sys_s"],
        "alloc.warmup_s": warm["wall_s"] - warm["checkpoint_s"],
        "alloc.resident_changes_per_allocation": (
            events.resident_changes / events.allocations if events.allocations else 0.0
        ),
        "resize.count": 0,
        "resize.grows": 0,
        "resize.shrinks": 0,
        "resize.migrated_items": 0,
        "gpusim.modelled_s": modelled,
        "gpusim.cas_failures_per_op": events.cas_failures / window_ops,
        "gpusim.allocations": events.allocations,
        "gpusim.coalesced_read_transactions": events.coalesced_read_transactions,
        "snapshot.bytes": snapshot_bytes,
    }
    if tracer is not None:
        result.per_layer.update(layer_metrics(
            tracer.ledger(window_start.wall, window_end.wall), program_s, window_ops,
            tracer.ledger(persist_start, persist_end),
        ))
        result.per_layer["trace.throughput_ops_s"] = result.end_to_end["throughput_ops_s"]
    result.details = {
        "setup_s_samples": setup_times,
        "checkpoint_s_samples": checkpoints,
        "restart_s_samples": restarts,
        "window_admissions": window_admissions,
        "latency_samples": len(latency),
        "warmup": warm,
        "window": window,
        "warmup_ops": warmup_admissions * config.admission,
    }
    return result


async def _restart_rounds(run: _Run, result: Result, workdir: str) -> tuple:
    """Checkpoint, a WAL tail, then a crash and restart from the snapshot plus
    the tail; the recovered service serves the next round.

    Returns the checkpoint and restart times and the last snapshot's size.
    """
    config = run.config
    tail = _admission_count(config, config.tail_ops)
    checkpoints, restarts = [], []
    snapshot_bytes = 0
    for round_index in range(config.restarts):
        snapshot = os.path.join(workdir, f"snapshot-{round_index}")
        started = time.perf_counter()
        run.service.checkpoint(snapshot)
        checkpoints.append(time.perf_counter() - started)
        snapshot_bytes = sum(
            os.path.getsize(os.path.join(snapshot, name)) for name in os.listdir(snapshot)
        )
        await run.closed_loop(tail, group=config.group)
        await run.service.stop()
        run.service.wal.close()
        # Drop the crashed engine before recovering, so the process holds
        # one engine's memory, as a restarted server would.
        run.service = run.engine = None
        gc.collect()
        started = time.perf_counter()
        run.service = SlabHashService.recovered(
            snapshot, WriteAheadLog(run.wal_path), config=run.service_config
        )
        restarts.append(time.perf_counter() - started)
        run.engine = run.service.engine
        run.check_contents(run.engine, result, f"restart {round_index}")
        await run.service.start()
    await run.service.stop()
    run.service.wal.close()
    run.check_contents(run.engine, result, "final")
    return checkpoints, restarts, snapshot_bytes


def run_serve(config: ServeConfig, seed: int, seconds: float, workdir: str,
              tracer: Optional[Tracer] = None) -> Result:
    return asyncio.run(_serve(config, seed, seconds, workdir, tracer))


def tiny(config: ServeConfig) -> ServeConfig:
    """The same workload at a size a unit test can afford, with a window of
    a fixed number of admissions so that its op count repeats."""
    return replace(config, population=4_000, admission=40, clients=4, max_batch=256,
                   warmup_ops=4_000, window_admissions=500, setups=1, restarts=1,
                   tail_ops=1_000, margin=16 * config.group, min_tail=1)
